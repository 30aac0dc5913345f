// Unstaged reference flow for the hetparc golden-diff test.
//
// Plans one mini-C program the way a single compile worked before the staged
// pipeline existed: buildFromSource, validate, one Parallelizer run with
// default options (jobs = 1), the best root for the slowest class, then the
// three codegen emitters called directly. It uses no pipeline type (no
// Session, ArtifactCache or TimingRegistry), so comparing its files with
// what `hetparc --emit-annotated/--emit-parspec/--emit-premap` writes checks
// that staging the compiler changed nothing about those artifacts.
//
// Usage: golden_reference <source.c> <out-dir>
// Plans for platform A (hetparc --preset A) and writes pipeline.annotated.c,
// pipeline.parspec and pipeline.premap into <out-dir>.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "hetpar/codegen/annotate.hpp"
#include "hetpar/codegen/mpa_spec.hpp"
#include "hetpar/codegen/premap_spec.hpp"
#include "hetpar/cost/timing.hpp"
#include "hetpar/htg/builder.hpp"
#include "hetpar/htg/validate.hpp"
#include "hetpar/parallel/parallelizer.hpp"
#include "hetpar/platform/presets.hpp"
#include "hetpar/support/error.hpp"

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  hetpar::require(in.good(), "cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  hetpar::require(out.good(), "cannot write '" + path + "'");
  out << contents;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hetpar;
  if (argc != 3) {
    std::fprintf(stderr, "usage: golden_reference <source.c> <out-dir>\n");
    return 1;
  }
  const std::string outDir = argv[2];

  try {
    const htg::FrontendBundle bundle = htg::buildFromSource(readFile(argv[1]));
    htg::validateOrThrow(bundle.graph);

    const platform::Platform pf = platform::platformA();
    const cost::TimingModel timing(pf);
    const parallel::ParallelizeOutcome outcome =
        parallel::Parallelizer(bundle.graph, timing, parallel::ParallelizerOptions{}).run();
    const parallel::SolutionRef best = outcome.bestRoot(bundle.graph, pf.slowestClass());
    require(best.valid(), "no root solution for the slowest class");

    writeFile(outDir + "/pipeline.annotated.c",
              codegen::annotateSource(bundle.program, bundle.graph, outcome.table, best, pf));
    writeFile(outDir + "/pipeline.parspec", codegen::mpaSpec(bundle.graph, outcome.table, best));
    writeFile(outDir + "/pipeline.premap",
              codegen::premapSpec(bundle.graph, outcome.table, best, pf));
  } catch (const Error& e) {
    std::fprintf(stderr, "golden_reference: error: %s\n", e.what());
    return 2;
  }
  return 0;
}
