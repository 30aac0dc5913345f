// Solver-counter pin: the exact B&B and LP-engine counters of one real plan.
//
// Planning tests/data/pipeline.c on platform A (conservative analysis,
// jobs 1) runs 27 ILPs. Their node, iteration, refactorization, eta and
// fill counts are a fingerprint of the whole pivot sequence: any change to
// pricing, the ratio test, the LU's pivot choice or the refactorization
// trigger moves at least one of them. Performance work on the solver must
// keep them bit-identical. A change that alters the pivot sequence on
// purpose updates the pin below and records the old and new counters in
// CHANGES.md.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "hetpar/pipeline/session.hpp"
#include "hetpar/platform/presets.hpp"

namespace hetpar::ilp {
namespace {

std::string readSource(const char* path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(SolverCounterPin, PipelinePresetA) {
  pipeline::SessionInputs in;
  in.name = "pipeline.c";
  in.source = readSource(HETPAR_PIPELINE_SOURCE);
  ASSERT_FALSE(in.source.empty()) << HETPAR_PIPELINE_SOURCE;
  in.platform = platform::platformA();
  in.depMode = ir::DependenceMode::Conservative;
  in.flowMode = ir::FlowMode::Conservative;
  in.parallelizer.jobs = 1;
  // Every solve here finishes in well under the default 20 s limit; lifting
  // it keeps the counters exact on slow (sanitized) builds too.
  in.parallelizer.ilpTimeLimitSeconds = 1e9;
  pipeline::Session session(std::move(in));

  const parallel::IlpStatistics& s = session.parallelize().stats;
  EXPECT_EQ(s.numIlps, 27);
  EXPECT_EQ(s.numVars, 1233);
  EXPECT_EQ(s.numConstraints, 2496);
  EXPECT_EQ(s.bnbNodes, 1963);
  EXPECT_EQ(s.simplexIterations, 85284);
  EXPECT_EQ(s.refactorizations, 2014);
  EXPECT_EQ(s.etaUpdates, 81591);
  EXPECT_EQ(s.peakFillNonzeros, 15428);
}

}  // namespace
}  // namespace hetpar::ilp
