#ifndef FABRIC_COMMON_LOGGING_H_
#define FABRIC_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace fabric {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3,
                      kFatal = 4 };

// Process-wide minimum level for emitted log lines (kWarning, so tests
// and benches stay quiet).
LogLevel GetLogLevel();

namespace internal {

// Stream-style log line collector; emits on destruction. A kFatal line
// aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Lets the logging macros produce a void expression from a LogMessage
// stream chain (glog's "voidify" idiom): `&` binds looser than `<<`.
class Voidify {
 public:
  void operator&(LogMessage&) {}
};

}  // namespace internal
}  // namespace fabric

#define FABRIC_LOG(level)                                              \
  (static_cast<int>(::fabric::LogLevel::k##level) <                    \
   static_cast<int>(::fabric::GetLogLevel()))                          \
      ? (void)0                                                        \
      : ::fabric::internal::Voidify() &                                \
            ::fabric::internal::LogMessage(                            \
                ::fabric::LogLevel::k##level, __FILE__, __LINE__)

// Lazily-evaluated CHECK that aborts with the streamed message on failure.
#define FABRIC_CHECK(cond)                                             \
  (cond) ? (void)0                                                     \
         : ::fabric::internal::Voidify() &                             \
               ::fabric::internal::LogMessage(                         \
                   ::fabric::LogLevel::kFatal, __FILE__, __LINE__)     \
                   << "Check failed: " #cond " "

// Copies the checked value: `expr` is commonly `result.status()` on a
// temporary Result, and a reference would dangle once the temporary
// dies at the end of this declaration's full-expression.
#define FABRIC_CHECK_OK(expr)                                          \
  do {                                                                 \
    const auto _fabric_chk = (expr);                                   \
    FABRIC_CHECK(_fabric_chk.ok()) << _fabric_chk.ToString();          \
  } while (false)

#endif  // FABRIC_COMMON_LOGGING_H_
