// Keyword matching without tokenizing: ContainsWord walks the text in
// place, and its answers must stay exactly those of the TokenizeWords
// reference — SnippetKeywordIndex's posting lists are built with
// TokenizeWords, and a keyword-index plan is only correct if the lists
// never miss a word ContainsWord matches. Checked on seeded random texts,
// then end to end: the keyword-index plan and the scan plan of
// containsUnion agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "engine_test_util.h"
#include "optimizer/optimizer.h"

namespace insight {
namespace {

bool ReferenceContainsWord(std::string_view text, std::string_view word) {
  const std::string needle = ToLower(word);
  for (const std::string& token : TokenizeWords(text)) {
    if (token == needle) return true;
  }
  return false;
}

// A random byte drawn to cover every class the tokenizer distinguishes.
char RandomByte(Rng* rng) {
  static const std::string kPunct = " \t\n.,;:!?-_'\"()[]/@#";
  switch (rng->Uniform(0, 9)) {
    case 0:
    case 1:
    case 2:
      return static_cast<char>('a' + rng->Uniform(0, 25));
    case 3:
      return static_cast<char>('A' + rng->Uniform(0, 25));
    case 4:
      return static_cast<char>('0' + rng->Uniform(0, 9));
    case 5:
      return static_cast<char>(0x80 + rng->Uniform(0, 0x7f));  // >= 0x80.
    default:
      return kPunct[static_cast<size_t>(
          rng->Uniform(0, static_cast<int64_t>(kPunct.size()) - 1))];
  }
}

std::string RandomText(Rng* rng, size_t max_len) {
  std::string text;
  const size_t len = static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(max_len)));
  for (size_t i = 0; i < len; ++i) text += RandomByte(rng);
  return text;
}

std::string FlipCase(std::string word, Rng* rng) {
  for (char& c : word) {
    if (rng->NextBool()) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  return word;
}

// Keywords aimed at `text`: some of its own tokens (case-flipped), their
// strict prefixes and suffixes, the same tokens glued to punctuation, and
// the degenerate needles.
std::vector<std::string> KeywordsFor(const std::string& text, Rng* rng) {
  std::vector<std::string> out = {"", "-", " ", "a-b", "two words",
                                  std::string(300, 'a'), "\xc3\xa9t\xc3\xa9",
                                  RandomText(rng, 6)};
  const std::vector<std::string> tokens = TokenizeWords(text);
  for (size_t i = 0; i < tokens.size() && i < 12; ++i) {
    const std::string& token = rng->Pick(tokens);
    out.push_back(FlipCase(token, rng));
    if (token.size() > 1) {
      out.push_back(token.substr(0, token.size() - 1));
      out.push_back(token.substr(1));
    }
    out.push_back(token + "-");
    out.push_back(token + " x");
  }
  return out;
}

TEST(ContainsWordDifferentialTest, MatchesTokenizerOnRandomTexts) {
  Rng rng(20261017);
  size_t matches = 0;
  size_t checks = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::string text = RandomText(&rng, round % 20 == 0 ? 2000 : 60);
    for (const std::string& keyword : KeywordsFor(text, &rng)) {
      const bool want = ReferenceContainsWord(text, keyword);
      ASSERT_EQ(ContainsWord(text, keyword), want)
          << "text '" << text << "' keyword '" << keyword << "'";
      matches += want ? 1 : 0;
      ++checks;
    }
  }
  // The generator must exercise both answers heavily.
  EXPECT_GT(matches, checks / 10);
  EXPECT_GT(checks - matches, checks / 10);
}

TEST(ContainsWordDifferentialTest, EdgeCasesMatchTokenizer) {
  const std::string long_word(5000, 'q');
  std::vector<std::pair<std::string, std::string>> cases = {
      {"Outbreak of avian flu", "outbreak"},       // At the start.
      {"avian flu OUTBREAK", "outbreak"},          // At the end.
      {"(outbreak)", "outbreak"},                  // Between punctuation.
      {"outbreak,nesting.", "nesting"},            // After a comma.
      {"outbreaks", "outbreak"},                   // Prefix of a token.
      {"preoutbreak", "outbreak"},                 // Suffix of a token.
      {"out-break", "out-break"},                  // Hyphenated keyword.
      {"out break", "out break"},                  // Keyword with a space.
      {"out break", "break"},                      // Split token.
      {"caf\xc3\xa9", "caf"},                      // >= 0x80 separates.
      {"caf\xc3\xa9", "caf\xc3\xa9"},              // ... and never matches.
      {"x1y2", "X1Y2"},                            // Digits and case.
      {"", "outbreak"},                            // Empty text.
      {"", ""},                                    // Empty both.
      {"  ", ""},                                  // Empty keyword.
      {"nest", ""},                                // Empty keyword.
      {long_word, long_word},                      // Very long keyword.
      {long_word + "q", long_word},                // One byte short.
      {"a " + long_word, long_word + "q"},         // One byte long.
  };
  // The matcher filters 16 candidate starts at a time on each candidate's
  // first and last byte: matches at every offset across block edges, at
  // the text's last byte, and as long as the text, plus the bytes the
  // `| 0x20` filter confuses with digits (0x10-0x19) and bytes >= 0x80
  // right beside a match.
  const std::string pad(20, ' ');
  for (size_t off = 0; off <= 40; ++off) {
    cases.push_back({std::string(off, '-') + "OspRey!" + pad, "osprey"});
    cases.push_back({std::string(off, 'x') + "osprey" + pad, "osprey"});
    cases.push_back({std::string(off, '.') + "1ab2", "1AB2"});
  }
  for (size_t n : {1, 15, 16, 17, 31, 32, 33}) {
    cases.push_back({std::string(n, 'Q'), std::string(n, 'q')});
    cases.push_back({std::string(n, 'q'), std::string(n, 'q') + "q"});
  }
  cases.push_back({pad + "\x11" "ab\x12" + pad, "1ab2"});
  cases.push_back({pad + "\x11" "ab\x12 1AB2" + pad, "1ab2"});
  cases.push_back({pad + "\x19" "9\x10" + pad + "\x19" "9\x10", "990"});
  cases.push_back({pad + "\xc3osprey\xa9" + pad, "osprey"});
  cases.push_back({pad + "\xffosprey", "osprey"});
  cases.push_back({pad + "\x13sprey\x99" + pad, "3sprey"});
  for (const auto& [text, keyword] : cases) {
    EXPECT_EQ(ContainsWord(text, keyword),
              ReferenceContainsWord(text, keyword))
        << "text '" << text.substr(0, 40) << "' keyword '"
        << keyword.substr(0, 40) << "'";
  }
  EXPECT_TRUE(ContainsWord("Outbreak of avian flu", "OUTBREAK"));
  EXPECT_FALSE(ContainsWord("outbreaks", "outbreak"));
  EXPECT_FALSE(ContainsWord("nest", ""));
  EXPECT_TRUE(ContainsWord(long_word, long_word));
}

// The two plans of containsUnion over a relation with a keyword index —
// the posting-list intersection (re-checked by ContainsWord, since the
// lists span summary versions) and a scan evaluating ContainsWord per
// snippet — must return the same rows: the index may not miss a match.
TEST(KeywordPlanDifferentialTest, IndexAndScanPlansAgree) {
  TestDb db(120);
  Rng rng(7);
  const std::vector<std::string> vocabulary = {
      "osprey", "Trout", "nest", "outbreak", "heron", "nesting", "OUTBREAK"};
  for (Oid oid = 1; oid <= 120; ++oid) {
    if (oid % 4 == 0) continue;  // Un-annotated tuples.
    std::string text;
    while (text.size() <= 95) {
      text += rng.Pick(vocabulary);
      text += rng.NextBool(0.3) ? ", " : " ";
    }
    ASSERT_TRUE(db.mgr->AddAnnotation(text, {{oid, CellMask(0)}}).ok());
  }
  QueryContext ctx(&db.catalog, &db.storage, &db.pool);
  ASSERT_TRUE(ctx.RegisterRelation(db.birds, db.mgr.get()).ok());
  ASSERT_TRUE(
      ctx.RegisterKeywordIndex("Birds", "TextSummary1", db.KeywordIndex())
          .ok());
  ASSERT_TRUE(ctx.Analyze("Birds").ok());

  const std::vector<std::vector<std::string>> keyword_sets = {
      {"osprey"},          {"Outbreak", "nesting"}, {"nest", "heron"},
      {"trout", "OSPREY"}, {"nes"},                 {"out-break"},
      {""},                {"heron", "nosuchword"}};
  size_t nonempty = 0;
  for (const std::vector<std::string>& keywords : keyword_sets) {
    SCOPED_TRACE(Join(keywords, ","));
    auto rows_of = [&](bool use_index, std::string* tree) {
      OptimizerOptions opts;
      opts.use_summary_indexes = use_index;
      Optimizer opt(&ctx, opts);
      auto op = opt.Optimize(LSummarySelect(
          LScan("Birds"), ContainsUnion("TextSummary1", keywords)));
      EXPECT_TRUE(op.ok()) << op.status().ToString();
      std::vector<std::string> out;
      if (!op.ok()) return out;
      *tree = (*op)->ExplainTree();
      auto rows = CollectRows(op->get());
      EXPECT_TRUE(rows.ok()) << rows.status().ToString();
      if (!rows.ok()) return out;
      for (const Row& row : *rows) {
        std::string bytes;
        row.summaries.Serialize(&bytes);
        out.push_back(std::to_string(row.oid) + "|" + row.data.ToString() +
                      "|" + bytes);
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    std::string index_tree;
    std::string scan_tree;
    const auto by_index = rows_of(true, &index_tree);
    const auto by_scan = rows_of(false, &scan_tree);
    EXPECT_NE(index_tree.find("KeywordIndexScan"), std::string::npos)
        << index_tree;
    EXPECT_NE(scan_tree.find("SeqScan"), std::string::npos) << scan_tree;
    EXPECT_EQ(by_index, by_scan);
    nonempty += by_index.empty() ? 0 : 1;
  }
  EXPECT_GE(nonempty, 4u);
}

}  // namespace
}  // namespace insight
