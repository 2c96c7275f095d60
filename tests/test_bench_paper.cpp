// Every quick-tier bench case that declares an accuracy bound, run
// in-process under the runner's protocol and held to its bound by the
// same within_bound() gate that makes `awesim_bench --quick` exit
// nonzero.  These are the paper's tables and figures (plus the scaling,
// sweep, path and reduction cases that measure an accuracy), so a
// reproduced result that drifts fails ctest instead of printing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cases.h"
#include "harness.h"

using namespace awesim;

namespace {

std::vector<std::string> bounded_quick_cases() {
  bench::ensure_all_registered();
  std::vector<std::string> names;
  for (const auto& c : bench::registry()) {
    if (c.quick_tier && c.accuracy_bound) names.push_back(c.name);
  }
  return names;
}

const bench::BenchCase& find_case(const std::string& name) {
  for (const auto& c : bench::registry()) {
    if (c.name == name) return c;
  }
  throw std::runtime_error("registered case not found: " + name);
}

class PaperCase : public ::testing::TestWithParam<std::string> {};

TEST_P(PaperCase, AccuracyWithinDeclaredBound) {
  bench::RunOptions options;
  options.quick = true;
  options.repeats = 1;  // the gate reads the accuracy, not the timing
  const bench::BenchResult r = bench::run_case(find_case(GetParam()), options);
  ASSERT_TRUE(r.accuracy_bound.has_value());
  EXPECT_TRUE(bench::within_bound(r))
      << r.name << ": " << r.accuracy_metric << " = " << r.accuracy
      << " violates its bound " << *r.accuracy_bound;
}

INSTANTIATE_TEST_SUITE_P(
    Bench, PaperCase, ::testing::ValuesIn(bounded_quick_cases()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string id = info.param;
      for (char& ch : id) {
        if (ch == '.') ch = '_';
      }
      return id;
    });

}  // namespace
