#pragma once

/// \file error.h
/// Error-handling machinery for hedra.
///
/// Public API misuse (bad arguments, malformed graphs, ...) throws
/// hedra::Error via HEDRA_REQUIRE.  Internal invariants use HEDRA_ASSERT,
/// which also throws (so property tests can observe violations) but is
/// worded as a library bug.

#include <cstddef>
#include <stdexcept>
#include <string>

namespace hedra {

/// Exception thrown on precondition violations and invalid inputs.
/// HEDRA_REQUIRE failures also name the failed check and its source
/// location: what() is "<message> [<expr> at <file>:<line>]", for logs and
/// tests, while message() alone is fit to show a client.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& message)
      : std::runtime_error(message), message_size_(message.size()) {}

  /// `where` is "<expr> at <file>:<line>".
  Error(const std::string& message, const std::string& where);

  /// what() without the failed check and its source location.
  [[nodiscard]] std::string message() const {
    return std::string(what(), message_size_);
  }

  /// The failed check and its source location; empty when none was given.
  [[nodiscard]] std::string where() const {
    const std::string full = what();
    if (full.size() == message_size_) return {};
    return full.substr(message_size_ + 2, full.size() - message_size_ - 3);
  }

 private:
  std::size_t message_size_;
};

/// Exception thrown when an internal invariant does not hold (a hedra bug).
class InternalError : public std::logic_error {
 public:
  explicit InternalError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] void throw_require_failure(const char* expr, const char* file,
                                        int line, const std::string& msg);
[[noreturn]] void throw_assert_failure(const char* expr, const char* file,
                                       int line);
}  // namespace detail

}  // namespace hedra

/// Validate a caller-supplied precondition; throws hedra::Error on failure.
#define HEDRA_REQUIRE(expr, msg)                                          \
  do {                                                                    \
    if (!(expr)) {                                                        \
      ::hedra::detail::throw_require_failure(#expr, __FILE__, __LINE__,  \
                                             (msg));                     \
    }                                                                     \
  } while (false)

/// Validate an internal invariant; throws hedra::InternalError on failure.
#define HEDRA_ASSERT(expr)                                                   \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::hedra::detail::throw_assert_failure(#expr, __FILE__, __LINE__);      \
    }                                                                        \
  } while (false)
