#include "util/fraction.h"

#include <limits>
#include <numeric>
#include <ostream>

#include "util/error.h"

namespace hedra {

namespace {

using Int128 = __int128;

std::int64_t checked_narrow(Int128 v) {
  HEDRA_REQUIRE(v >= std::numeric_limits<std::int64_t>::min() &&
                    v <= std::numeric_limits<std::int64_t>::max(),
                "Frac arithmetic overflowed 64-bit range");
  return static_cast<std::int64_t>(v);
}

/// |v| as an unsigned magnitude.  Well-defined for INT64_MIN (2^63 fits
/// uint64), unlike the naive `v < 0 ? -v : v` which is UB there.
constexpr std::uint64_t abs_u64(std::int64_t v) noexcept {
  const auto u = static_cast<std::uint64_t>(v);
  return v < 0 ? ~u + 1 : u;
}

/// -v, or the overflow error when v == INT64_MIN (the one int64 whose
/// negation is unrepresentable).
std::int64_t checked_negate(std::int64_t v) {
  HEDRA_REQUIRE(v != std::numeric_limits<std::int64_t>::min(),
                "Frac arithmetic overflowed 64-bit range");
  return -v;
}

/// v / g where g exactly divides |v|.  Works in the magnitude domain so
/// that v == INT64_MIN (whose |v| = 2^63 only exists unsigned) divides
/// cleanly; the quotient is always representable because |v/g| <= |v|.
std::int64_t divide_exact(std::int64_t v, std::uint64_t g) noexcept {
  const std::uint64_t q = abs_u64(v) / g;
  return v < 0 ? static_cast<std::int64_t>(~q + 1) : static_cast<std::int64_t>(q);
}

/// The audited 64x64 -> 128 product.  Under HEDRA_CHECKED_FRAC every
/// product is recomputed through __builtin_mul_overflow and the two
/// independent arithmetic paths must agree — a product that fits 64 bits
/// must match the wide result bit-for-bit, and one that overflows must
/// land outside the 64-bit range.  The sanitizer CI job builds with the
/// flag on, so a logic drift in either path fails loudly there instead of
/// silently corrupting a response-time bound.
Int128 mul_128(std::int64_t a, std::int64_t b) {
  const Int128 wide = Int128(a) * b;
#ifdef HEDRA_CHECKED_FRAC
  std::int64_t narrow = 0;
  if (__builtin_mul_overflow(a, b, &narrow)) {
    HEDRA_REQUIRE(wide < Int128(std::numeric_limits<std::int64_t>::min()) ||
                      wide > Int128(std::numeric_limits<std::int64_t>::max()),
                  "HEDRA_CHECKED_FRAC: overflow audit disagrees with the "
                  "128-bit product");
  } else {
    HEDRA_REQUIRE(wide == Int128(narrow),
                  "HEDRA_CHECKED_FRAC: __builtin_mul_overflow product "
                  "disagrees with the 128-bit product");
  }
#endif
  return wide;
}

}  // namespace

Frac::Frac(std::int64_t num, std::int64_t den) : num_(num), den_(den) {
  HEDRA_REQUIRE(den != 0, "Frac denominator must be non-zero");
  // Reduce on unsigned magnitudes FIRST: |INT64_MIN| is representable in
  // uint64, so the gcd and the exact divisions below are overflow-free.
  // Only after reduction is the sign moved to the numerator; a residual
  // INT64_MIN that must flip sign is a genuine unrepresentable value
  // (e.g. 1/INT64_MIN needs den = 2^63 > INT64_MAX) and throws.
  const std::uint64_t g = std::gcd(abs_u64(num_), abs_u64(den_));
  if (g > 1) {
    num_ = divide_exact(num_, g);
    den_ = divide_exact(den_, g);
  }
  if (den_ < 0) {
    num_ = checked_negate(num_);
    den_ = checked_negate(den_);
  }
}

double Frac::to_double() const noexcept {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::int64_t Frac::floor() const noexcept {
  const std::int64_t q = num_ / den_;
  return (num_ % den_ != 0 && num_ < 0) ? q - 1 : q;
}

std::int64_t Frac::ceil() const noexcept {
  const std::int64_t q = num_ / den_;
  return (num_ % den_ != 0 && num_ > 0) ? q + 1 : q;
}

std::string Frac::to_string() const {
  if (is_integer()) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

Frac& Frac::operator+=(const Frac& rhs) {
  const Int128 n =
      mul_128(num_, rhs.den_) + mul_128(rhs.num_, den_);
  const Int128 d = mul_128(den_, rhs.den_);
  // Normalise in 128 bits before narrowing so that e.g. 1/3 + 2/3 never
  // overflows spuriously.
  Int128 a = n < 0 ? -n : n;
  Int128 b = d;
  while (b != 0) {
    const Int128 t = a % b;
    a = b;
    b = t;
  }
  const Int128 g = a == 0 ? 1 : a;
  *this = Frac(checked_narrow(n / g), checked_narrow(d / g));
  return *this;
}

Frac& Frac::operator-=(const Frac& rhs) {
  return *this += Frac(checked_negate(rhs.num_), rhs.den_);
}

Frac operator-(const Frac& f) { return Frac(checked_negate(f.num_), f.den_); }

Frac& Frac::operator*=(const Frac& rhs) {
  // Cross-reduce first to keep intermediates small.  gcd runs on unsigned
  // magnitudes so INT64_MIN numerators reduce without UB; both gcds are
  // >= 1 because denominators are always positive.
  const std::uint64_t g1 =
      std::gcd(abs_u64(num_), static_cast<std::uint64_t>(rhs.den_));
  const std::uint64_t g2 =
      std::gcd(abs_u64(rhs.num_), static_cast<std::uint64_t>(den_));
  const Int128 n = mul_128(divide_exact(num_, g1), divide_exact(rhs.num_, g2));
  const Int128 d =
      mul_128(divide_exact(den_, g2), divide_exact(rhs.den_, g1));
  *this = Frac(checked_narrow(n), checked_narrow(d));
  return *this;
}

Frac& Frac::operator/=(const Frac& rhs) {
  HEDRA_REQUIRE(rhs.num_ != 0, "Frac division by zero");
  return *this *= Frac(rhs.den_, rhs.num_);
}

std::strong_ordering operator<=>(const Frac& a, const Frac& b) noexcept {
  const Int128 lhs = Int128(a.num_) * b.den_;  // never overflows Int128
  const Int128 rhs = Int128(b.num_) * a.den_;
  if (lhs < rhs) return std::strong_ordering::less;
  if (lhs > rhs) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::ostream& operator<<(std::ostream& os, const Frac& f) {
  return os << f.to_string();
}

Frac frac_max(const Frac& a, const Frac& b) noexcept { return a < b ? b : a; }
Frac frac_min(const Frac& a, const Frac& b) noexcept { return b < a ? b : a; }

namespace {

std::int64_t parse_int_strict(std::string_view text, std::string_view whole) {
  HEDRA_REQUIRE(!text.empty(), "malformed rational '" + std::string(whole) +
                                   "': empty component");
  std::int64_t value = 0;
  bool negative = false;
  std::size_t i = 0;
  if (text[0] == '-' || text[0] == '+') {
    negative = text[0] == '-';
    i = 1;
    HEDRA_REQUIRE(text.size() > 1, "malformed rational '" + std::string(whole) +
                                       "': sign without digits");
  }
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (; i < text.size(); ++i) {
    HEDRA_REQUIRE(text[i] >= '0' && text[i] <= '9',
                  "malformed rational '" + std::string(whole) +
                      "': unexpected character '" + std::string(1, text[i]) +
                      "'");
    const std::int64_t digit = text[i] - '0';
    HEDRA_REQUIRE(value <= (kMax - digit) / 10,
                  "malformed rational '" + std::string(whole) +
                      "': overflows 64-bit range");
    value = value * 10 + digit;
  }
  return negative ? -value : value;
}

}  // namespace

Frac parse_frac(std::string_view text) {
  HEDRA_REQUIRE(!text.empty(), "cannot parse an empty rational");
  const auto slash = text.find('/');
  if (slash != std::string_view::npos) {
    HEDRA_REQUIRE(text.find('.') == std::string_view::npos &&
                      text.find('/', slash + 1) == std::string_view::npos,
                  "malformed rational '" + std::string(text) + "'");
    const std::int64_t num = parse_int_strict(text.substr(0, slash), text);
    const std::int64_t den = parse_int_strict(text.substr(slash + 1), text);
    HEDRA_REQUIRE(den != 0, "malformed rational '" + std::string(text) +
                                "': zero denominator");
    return Frac(num, den);
  }
  const auto dot = text.find('.');
  if (dot == std::string_view::npos) return Frac(parse_int_strict(text, text));
  const std::string_view frac_digits = text.substr(dot + 1);
  HEDRA_REQUIRE(!frac_digits.empty() &&
                    frac_digits.find_first_not_of("0123456789") ==
                        std::string_view::npos,
                "malformed rational '" + std::string(text) + "'");
  HEDRA_REQUIRE(frac_digits.size() <= 18,
                "malformed rational '" + std::string(text) +
                    "': too many decimal places");
  const std::string_view whole_part = text.substr(0, dot);
  const bool negative = !whole_part.empty() && whole_part[0] == '-';
  // "-0.5" has integer part 0, so the sign must be applied to the whole
  // value, not just the integer component.
  const std::int64_t integral =
      whole_part.empty() || whole_part == "-" || whole_part == "+"
          ? 0
          : parse_int_strict(whole_part, text);
  std::int64_t den = 1;
  for (std::size_t i = 0; i < frac_digits.size(); ++i) den *= 10;
  const std::int64_t frac_part = parse_int_strict(frac_digits, text);
  const std::int64_t whole_abs = integral < 0 ? -integral : integral;
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  HEDRA_REQUIRE(whole_abs <= (kMax - frac_part) / den,
                "malformed rational '" + std::string(text) +
                    "': overflows 64-bit range");
  const std::int64_t magnitude = whole_abs * den + frac_part;
  return Frac(negative || integral < 0 ? -magnitude : magnitude, den);
}

std::string frac_spec_string(const Frac& f) {
  if (f.is_integer()) return std::to_string(f.num());
  // A denominator of the form 2^a * 5^b has an exact finite decimal.
  std::int64_t den = f.den();
  int twos = 0;
  int fives = 0;
  while (den % 2 == 0) {
    den /= 2;
    ++twos;
  }
  while (den % 5 == 0) {
    den /= 5;
    ++fives;
  }
  // 10^places must fit int64 (and the scaled numerator below must too);
  // beyond that the ratio form is the exact spelling anyway.
  if (den != 1) return f.to_string();
  const int places = twos > fives ? twos : fives;
  if (places > 18) return f.to_string();
  std::int64_t scale = 1;
  for (int i = 0; i < places; ++i) scale *= 10;
  // scale/f.den() is integral by construction.
  const std::int64_t factor = scale / f.den();
  // Magnitude-domain arithmetic: INT64_MIN numerators (reachable with odd
  // 5^b denominators, e.g. INT64_MIN/5) must not be negated as int64.
  const std::uint64_t num_abs = abs_u64(f.num());
  if (num_abs > static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max()) /
                    static_cast<std::uint64_t>(factor)) {
    return f.to_string();
  }
  const std::int64_t scaled_abs =
      static_cast<std::int64_t>(num_abs * static_cast<std::uint64_t>(factor));
  std::string digits = std::to_string(scaled_abs % scale);
  digits.insert(digits.begin(),
                static_cast<std::size_t>(places) - digits.size(), '0');
  std::string text = f.num() < 0 ? "-" : "";
  text.append(std::to_string(scaled_abs / scale)).append(".").append(digits);
  return text;
}

}  // namespace hedra
