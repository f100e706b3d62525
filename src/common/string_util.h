#ifndef INSIGHTNOTES_COMMON_STRING_UTIL_H_
#define INSIGHTNOTES_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace insight {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Lower-cases ASCII characters.
std::string ToLower(std::string_view s);

/// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Joins the elements with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Zero-pads `value` to exactly `width` digits ("8", 3 -> "008"). Values
/// wider than `width` are returned unpadded. Used by Summary-BTree
/// itemization where lexicographic order must match numeric order.
std::string ZeroPad(int64_t value, int width);

/// Tokenizes free text into lower-case alphanumeric words; the shared
/// tokenizer for classification, clustering, and keyword search so that
/// all annotation-processing components agree on word boundaries.
std::vector<std::string> TokenizeWords(std::string_view text);

/// True if `text` contains `word` as a whole token (case-insensitive):
/// exactly when TokenizeWords(text) holds ToLower(word), so an empty word
/// or one with a non-alphanumeric byte never matches. Walks `text` in
/// place and allocates nothing.
bool ContainsWord(std::string_view text, std::string_view word);

/// SQL LIKE-style matching with '%' (any run) and '_' (any single char).
/// Case-insensitive, as the paper's examples ("Swan*") imply prefix search.
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace insight

#endif  // INSIGHTNOTES_COMMON_STRING_UTIL_H_
