// Shared runners for the paper-reproduction bench binaries.

#ifndef FXDIST_BENCH_COMMON_H_
#define FXDIST_BENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/field_spec.h"
#include "core/transform.h"

namespace fxdist::bench {

/// Parameters of one probability-of-optimality figure (Figures 1-4).
struct FigureConfig {
  std::string title;
  unsigned num_fields = 6;
  std::uint64_t small_size = 8;
  std::uint64_t big_size = 64;
  std::uint64_t num_devices = 64;
  PlanFamily family = PlanFamily::kIU1;
  /// Also compute the empirical (ground-truth) FX column via the WHT fast
  /// path.  Exact while M * prod(F) stays within 126 bits.
  bool with_empirical = true;
  /// Basename for CSV export (written into $FXDIST_CSV_DIR when that
  /// environment variable is set; empty = no export).
  std::string csv_name;
};

/// Prints %strict-optimal for Modulo (MD) and FX (FD) as the number of
/// small fields L sweeps 0..n, exactly the x-axis of Figures 1-4.
void RunOptimalityFigure(const FigureConfig& config);

/// Parameters of one largest-response table (Tables 7-9).
struct TableConfig {
  std::string title;
  std::vector<std::uint64_t> field_sizes;
  std::uint64_t num_devices = 32;
  /// Registry spec for the FX column ("fx-iu1" for Tables 7-8, "fx-iu2"
  /// for Table 9).
  std::string fx_spec = "fx-iu1";
  unsigned k_min = 2;
  unsigned k_max = 6;
  /// Basename for CSV export (see FigureConfig::csv_name).
  std::string csv_name;
};

/// Prints average largest response size for Modulo, GDM1-3, FX and the
/// Optimal bound, rows k = k_min..k_max unspecified fields.
void RunLargestResponseTable(const TableConfig& config);

/// Per-pass wall time of a repeated timed body, in milliseconds.
struct PassTimes {
  double median_ms = 0.0;
  double p10_ms = 0.0;
  double p90_ms = 0.0;
};

/// Runs `pass` `passes` times back to back (at least once) and reports
/// the median and the 10th/90th percentiles of its wall time.  A single
/// 10-20 ms pass cannot resolve a 10% change on a shared host; the
/// median of several can, and the percentiles show how far it can be
/// trusted.
PassTimes TimePasses(std::size_t passes, const std::function<void()>& pass);

/// Rate cell for a pass of `ops` operations: the median pass's rate,
/// then the rates of the p90 (slow) and p10 (fast) passes in brackets.
std::string RateCell(std::size_t ops, const PassTimes& times);

/// Operations per second of a pass of `ops` operations taking `ms`.
double Rate(std::size_t ops, double ms);

}  // namespace fxdist::bench

#endif  // FXDIST_BENCH_COMMON_H_
