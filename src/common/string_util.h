#ifndef FABRIC_COMMON_STRING_UTIL_H_
#define FABRIC_COMMON_STRING_UTIL_H_

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fabric {

// Splits `input` on `delimiter`, keeping empty pieces.
std::vector<std::string> Split(std::string_view input, char delimiter);

// Joins `pieces` with `separator`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view separator);

// ASCII-only case mapping.
std::string ToLower(std::string_view input);
std::string ToUpper(std::string_view input);

// Strips leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// Case-insensitive ASCII equality (SQL keywords, option names).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

namespace string_util_internal {

// Appends one StrCat argument, spelled exactly as `std::ostream <<`
// with default flags would spell it, without building a stream for
// strings, integers or floating-point values.
template <typename T>
void AppendPiece(std::string* out, const T& piece) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out->append(std::string_view(piece));
  } else if constexpr (std::is_same_v<T, bool>) {
    out->push_back(piece ? '1' : '0');
  } else if constexpr (std::is_same_v<T, char> ||
                       std::is_same_v<T, signed char> ||
                       std::is_same_v<T, unsigned char>) {
    out->push_back(static_cast<char>(piece));
  } else if constexpr (std::is_integral_v<T>) {
    char buf[48];  // any integral type, __int128 included
    const char* end = std::to_chars(buf, buf + sizeof(buf), piece).ptr;
    out->append(buf, static_cast<size_t>(end - buf));
  } else if constexpr (std::is_floating_point_v<T>) {
    // The stream default (precision 6, no floatfield) is printf's %g.
    // A float widens exactly, so it rounds as the stream rounds it.
    using Wide = std::conditional_t<std::is_same_v<T, float>, double, T>;
    char buf[64];
    const char* end =
        std::to_chars(buf, buf + sizeof(buf), static_cast<Wide>(piece),
                      std::chars_format::general, 6)
            .ptr;
    out->append(buf, static_cast<size_t>(end - buf));
  } else {
    // Any other streamable type (Status, ...).
    std::ostringstream os;
    os << piece;
    out->append(os.str());
  }
}

}  // namespace string_util_internal

// Concatenates the arguments as `std::ostream <<` would print them
// (absl::StrCat stand-in). Strings, integers and floating-point values
// are appended directly (std::to_chars), so StrCat is cheap enough for
// per-row keys; only other streamable types go through a stream.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  (string_util_internal::AppendPiece(&out, args), ...);
  return out;
}

// Formats a byte count as "1.5 GB" etc. for logs and bench output.
std::string HumanBytes(double bytes);

// Formats row counts as "100M", "1.46B" etc. (paper-style labels).
std::string HumanCount(double count);

// Parses a signed integer / double; returns false on malformed input.
bool ParseInt64(std::string_view text, int64_t* out);
bool ParseDouble(std::string_view text, double* out);

}  // namespace fabric

#endif  // FABRIC_COMMON_STRING_UTIL_H_
