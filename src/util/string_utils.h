// Small string helpers shared by the text-mining and IO modules.

#ifndef ELITENET_UTIL_STRING_UTILS_H_
#define ELITENET_UTIL_STRING_UTILS_H_

#include <string>
#include <string_view>
#include <vector>

namespace elitenet {
namespace util {

/// Splits on a single delimiter character. Empty fields are preserved
/// ("a,,b" -> {"a", "", "b"}); an empty input yields one empty field.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits on runs of ASCII whitespace; empty tokens are dropped.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view s);

/// ASCII lower-casing (locale-independent).
std::string AsciiToLower(std::string_view s);

/// True if `s` begins with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Joins elements with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// The directory part and the file-name part of a '/'-separated path:
/// "a/b/c.eng2" -> "a/b" and "c.eng2", "c.eng2" -> "." and "c.eng2",
/// "/c" -> "/" and "c". Writers put their spill files in DirName(path),
/// named after BaseName(path).
std::string DirName(std::string_view path);
std::string BaseName(std::string_view path);

/// Parses a non-negative integer; returns false on any non-digit or
/// overflow. Used by the edge-list reader.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Parses a double via strtod over the full token; returns false on
/// trailing garbage or empty input.
bool ParseDouble(std::string_view s, double* out);

}  // namespace util
}  // namespace elitenet

#endif  // ELITENET_UTIL_STRING_UTILS_H_
