#include "util/error.h"

#include <sstream>

namespace hedra {

namespace {

std::string with_location(const std::string& message,
                          const std::string& where) {
  std::string what = message;
  what.append(" [").append(where).append("]");
  return what;
}

}  // namespace

Error::Error(const std::string& message, const std::string& where)
    : std::runtime_error(with_location(message, where)),
      message_size_(message.size()) {}

}  // namespace hedra

namespace hedra::detail {

void throw_require_failure(const char* expr, const char* file, int line,
                           const std::string& msg) {
  std::ostringstream where;
  where << expr << " at " << file << ":" << line;
  throw Error(std::string("precondition violated: ").append(msg), where.str());
}

void throw_assert_failure(const char* expr, const char* file, int line) {
  std::ostringstream os;
  os << "internal invariant violated (hedra bug): " << expr << " at " << file
     << ":" << line;
  throw InternalError(os.str());
}

}  // namespace hedra::detail
