// P_bk golden: a small RunScenario grid (2 degrees × UT/NT × D-LSR, P-LSR,
// BF) replayed end to end, its admissions and what-if failure samples
// compared against tests/testdata/pbk_golden.txt. The file pins the
// simulator's verdicts, not its speed: any change to the failure sweep,
// route selection or admission that moves one hit, trial or admission
// shows up here in every compiler's build.
//
// On a mismatch the test prints the grid it computed in the file's format;
// a deliberate behaviour change replaces the file with that text.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/experiment.h"
#include "sim/paper.h"

namespace drtp::sim {
namespace {

/// One cell as the golden records it.
std::string RunCell(double degree, TrafficPattern pattern, double lambda,
                    const std::string& scheme_label) {
  const net::Topology topo = MakePaperTopology(degree, 1);
  TrafficConfig tc = MakePaperTraffic(pattern, lambda, 7);
  tc.duration = 4000.0;  // the paper's 20–60 min lifetimes, a shorter run
  const Scenario scenario = Scenario::Generate(topo, tc);
  ExperimentConfig config;
  config.warmup = 2500.0;
  config.sample_interval = 150.0;
  auto scheme = MakeScheme(scheme_label, topo, 17);
  const RunMetrics m = RunScenario(topo, scenario, *scheme, config);
  std::ostringstream os;
  os << "E=" << degree << ' ' << PatternName(pattern) << " lambda=" << lambda
     << ' ' << scheme_label << " hits=" << m.pbk.hits
     << " trials=" << m.pbk.trials << " admitted=" << m.admitted
     << " blocked=" << m.blocked << '\n';
  return os.str();
}

std::string RunGrid() {
  std::string out;
  // λ above each degree's saturation point (§6.1), so spare pools are
  // overbooked and backup activations contend.
  for (const auto& [degree, lambda] : {std::pair{3.0, 0.7}, {4.0, 1.0}}) {
    for (const TrafficPattern pattern :
         {TrafficPattern::kUniform, TrafficPattern::kHotspot}) {
      for (const char* scheme : {"D-LSR", "P-LSR", "BF"}) {
        out += RunCell(degree, pattern, lambda, scheme);
      }
    }
  }
  return out;
}

std::string ReadGolden() {
  std::ifstream in(DRTP_TESTDATA_DIR "/pbk_golden.txt");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(PbkGolden, SmallGridMatchesCommittedCounts) {
  const std::string golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing tests/testdata/pbk_golden.txt";
  const std::string got = RunGrid();
  EXPECT_EQ(got, golden) << "computed grid:\n" << got;
}

}  // namespace
}  // namespace drtp::sim
