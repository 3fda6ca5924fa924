#ifndef EASEML_COMMON_LOGGING_H_
#define EASEML_COMMON_LOGGING_H_

#include <sstream>

namespace easeml {

namespace internal {

/// Accumulates one fatal diagnostic, emits it to stderr and aborts the
/// process on destruction (for EASEML_CHECK).
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalLogMessage();

  template <typename T>
  FatalLogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

/// Aborts with a diagnostic if `condition` is false. Used for programming
/// errors (invariant violations), never for recoverable input errors.
#define EASEML_CHECK(condition)                                      \
  if (!(condition))                                                  \
  ::easeml::internal::FatalLogMessage(__FILE__, __LINE__, #condition)

#define EASEML_DCHECK(condition) EASEML_CHECK(condition)

}  // namespace easeml

#endif  // EASEML_COMMON_LOGGING_H_
