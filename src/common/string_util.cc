#include "common/string_util.h"

#include <algorithm>
#include <cctype>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace insight {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string ZeroPad(int64_t value, int width) {
  const bool neg = value < 0;
  std::string digits = std::to_string(neg ? -value : value);
  std::string out;
  if (neg) out += '-';
  const int pad = width - static_cast<int>(digits.size());
  for (int i = 0; i < pad; ++i) out += '0';
  out += digits;
  return out;
}

std::vector<std::string> TokenizeWords(std::string_view text) {
  std::vector<std::string> words;
  std::string cur;
  for (char ch : text) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (std::isalnum(c)) {
      cur += static_cast<char>(std::tolower(c));
    } else if (!cur.empty()) {
      words.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) words.push_back(std::move(cur));
  return words;
}

namespace {

// C-locale character classes, as TokenizeWords sees them: ASCII letters
// and digits are word bytes; every other byte (0x80 and up included)
// separates words. `fold` lower-cases ASCII letters and keeps the rest.
struct WordTables {
  bool word[256];
  char fold[256];
  constexpr WordTables() : word(), fold() {
    for (int c = 0; c < 256; ++c) {
      const bool lower = c >= 'a' && c <= 'z';
      const bool upper = c >= 'A' && c <= 'Z';
      word[c] = lower || upper || (c >= '0' && c <= '9');
      fold[c] = static_cast<char>(upper ? c - 'A' + 'a' : c);
    }
  }
};
constexpr WordTables kWord;

}  // namespace

bool ContainsWord(std::string_view text, std::string_view word) {
  // A token is a maximal run of word bytes, so a needle that is empty or
  // holds a separator byte matches none.
  const size_t len = word.size();
  if (len == 0 || len > text.size()) return false;
  const auto* w = reinterpret_cast<const unsigned char*>(word.data());
  for (size_t k = 0; k < len; ++k) {
    if (!kWord.word[w[k]]) return false;
  }
  // Walk `text` in place for a run of `len` bytes that folds to the
  // needle's folding and is bounded by separators (or the text's ends).
  // Folding maps word bytes to word bytes and separators to themselves,
  // so a folded match holds word bytes only.
  const auto* t = reinterpret_cast<const unsigned char*>(text.data());
  const size_t last = text.size() - len;
  const char first = kWord.fold[w[0]];
  auto match_at = [&](size_t i) {
    if (kWord.fold[t[i]] != first) return false;
    if (i > 0 && kWord.word[t[i - 1]]) return false;
    if (i < last && kWord.word[t[i + len]]) return false;
    size_t k = 1;
    while (k < len && kWord.fold[t[i + k]] == kWord.fold[w[k]]) ++k;
    return k == len;
  };
  size_t i = 0;
#if defined(__SSE2__)
  // Sixteen candidate starts at a time: keep those whose first and last
  // bytes equal the needle's under `| 0x20`. That folds letters exactly
  // and admits a few bytes no word holds (0x10-0x19 pass for digits),
  // which match_at rejects, so the filter never drops a match.
  const __m128i case_bit = _mm_set1_epi8(0x20);
  const __m128i head = _mm_set1_epi8(static_cast<char>(w[0] | 0x20));
  const __m128i tail = _mm_set1_epi8(static_cast<char>(w[len - 1] | 0x20));
  for (; i + 15 <= last; i += 16) {
    const __m128i a = _mm_or_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + i)), case_bit);
    const __m128i b = _mm_or_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + i + len - 1)),
        case_bit);
    auto mask = static_cast<unsigned>(_mm_movemask_epi8(
        _mm_and_si128(_mm_cmpeq_epi8(a, head), _mm_cmpeq_epi8(b, tail))));
    for (; mask != 0; mask &= mask - 1) {
      if (match_at(i + static_cast<size_t>(__builtin_ctz(mask)))) return true;
    }
  }
#endif
  for (; i <= last; ++i) {
    if (match_at(i)) return true;
  }
  return false;
}

namespace {
bool LikeMatchImpl(std::string_view text, std::string_view pattern) {
  // Iterative two-pointer matcher with backtracking on the last '%'.
  size_t t = 0;
  size_t p = 0;
  size_t star_p = std::string_view::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    const char pc = p < pattern.size() ? pattern[p] : '\0';
    if (p < pattern.size() &&
        (pc == '_' ||
         std::tolower(static_cast<unsigned char>(pc)) ==
             std::tolower(static_cast<unsigned char>(text[t])))) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pc == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}
}  // namespace

bool LikeMatch(std::string_view text, std::string_view pattern) {
  return LikeMatchImpl(text, pattern);
}

}  // namespace insight
