// Full-scan reference for the single-link what-if failure evaluation.
//
// These are the pre-index algorithms: every link's evaluation walks the
// whole connection table in id order and re-derives each backup's
// activation demands from the paths. The production evaluators in
// drtp/failure.h must match them bit for bit; tests/perf_equivalence_test
// and tests/failure_test hold them to it, and bench/micro_engine times the
// pair.
#pragma once

#include "common/stats.h"
#include "common/types.h"
#include "drtp/failure.h"
#include "drtp/network.h"

namespace drtp::oracle {

/// core::EvaluateLinkFailureDetailed by scanning every connection.
core::FailureImpactDetail EvaluateLinkFailureScanDetailed(
    const core::DrtpNetwork& net, LinkId failed);

/// core::EvaluateLinkFailure by scanning every connection.
core::FailureImpact EvaluateLinkFailureScan(const core::DrtpNetwork& net,
                                            LinkId failed);

/// core::EvaluateAllSingleLinkFailures as one scan per link.
Ratio EvaluateAllSingleLinkFailuresScan(const core::DrtpNetwork& net);

}  // namespace drtp::oracle
