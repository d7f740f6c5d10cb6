/**
 * @file
 * Machine-readable run reports.
 *
 * One report file captures everything a run produced — per-workload
 * stats (the full stat-registry dump), the metric vector, timeline
 * windows, analytical-model outputs, wall-clock phase timings — plus
 * the run-level context needed to compare files across machines and
 * configurations: render parameters and a fingerprint of the
 * simulated hardware config. External tooling consumes these instead
 * of scraping the text tables.
 */

#ifndef LUMI_LUMIBENCH_RUN_REPORT_HH
#define LUMI_LUMIBENCH_RUN_REPORT_HH

#include <string>
#include <vector>

#include "lumibench/runner.hh"

namespace lumi
{

/** Schema tag written into (and required of) every report file. */
inline constexpr const char *kRunReportSchema =
    "lumibench-run-report-v1";

/**
 * Revision of the timing model. Bumped whenever a model change moves
 * simulated results for an unchanged config and options (2: the
 * interconnect became a per-cycle capacity calendar). Every report
 * records it, the result cache mixes it into its key and treats an
 * entry of another revision as a miss, and serve /version reports it.
 */
inline constexpr int kTimingModelRevision = 2;

/**
 * Name of the config-fingerprint scheme (see configFingerprint).
 * Bumped whenever the hashed field set or digest changes, so
 * dashboards can detect mixed-version cache directories via the
 * serve /version endpoint.
 */
inline constexpr const char *kConfigFingerprintScheme =
    "fnv1a64-xor32-v1";

/**
 * Stable fingerprint of a GpuConfig: "<name>-<hex>", where the hex
 * digest hashes every timing-relevant field. Two runs with the same
 * fingerprint simulated identical hardware.
 */
std::string configFingerprint(const GpuConfig &config);

/** Serialize one run (any number of workloads) as a JSON document. */
std::string runReportJson(const std::vector<WorkloadResult> &results,
                          const RunOptions &options);

/** Write runReportJson() to @p path; false on any I/O failure. */
bool writeRunReport(const std::string &path,
                    const std::vector<WorkloadResult> &results,
                    const RunOptions &options);

} // namespace lumi

#endif // LUMI_LUMIBENCH_RUN_REPORT_HH
