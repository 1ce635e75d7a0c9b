// The benchmark's three workloads. Each runs in its own process and reports
// every end-to-end metric (untraced run) or every layer metric (traced run)
// into the Report; see perfbench/README.md for what each one stresses.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "pipeline.h"
#include "util.h"

namespace perfbench {

/// Load -> TGAE Fit -> SaveArtifact per iteration, plus one Generate +
/// WriteEdgeList for the output checks.
void RunFitTgae(const RunConfig& cfg, Report& report);

/// LoadArtifact -> Generate -> WriteEdgeList rounds over four fitted models.
void RunGenerateMix(const RunConfig& cfg, Report& report);

/// Closed-loop generate/update traffic against an in-process serve daemon.
void RunServeMixed(const RunConfig& cfg, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
