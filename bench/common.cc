#include "common.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "analysis/conditions.h"
#include "analysis/fast_response.h"
#include "analysis/probability.h"
#include "core/registry.h"
#include "util/csv.h"
#include "util/math.h"
#include "util/table_printer.h"

namespace fxdist::bench {

namespace {

/// Writes `headers`+`rows` to $FXDIST_CSV_DIR/<name>.csv when the env var
/// is set and `name` is non-empty.
void MaybeWriteCsv(const std::string& name,
                   const std::vector<std::string>& headers,
                   const std::vector<std::vector<std::string>>& rows) {
  if (name.empty()) return;
  const char* dir = std::getenv("FXDIST_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return;
  CsvWriter csv(headers);
  for (const auto& row : rows) csv.AddRow(row);
  const std::string path = std::string(dir) + "/" + name + ".csv";
  if (Status st = csv.WriteFile(path); !st.ok()) {
    std::cerr << "csv export failed: " << st.ToString() << "\n";
  } else {
    std::cout << "(csv written to " << path << ")\n";
  }
}

/// Fraction of the 2^n unspecified masks that are strict optimal under
/// `method`, ground truth via the closed-form response vectors.
double EmpiricalMaskFraction(const DistributionMethod& method) {
  const unsigned n = method.spec().num_fields();
  std::uint64_t optimal = 0;
  const std::uint64_t total = std::uint64_t{1} << n;
  for (std::uint64_t mask = 0; mask < total; ++mask) {
    if (IsMaskStrictOptimal(method, mask)) ++optimal;
  }
  return static_cast<double>(optimal) / static_cast<double>(total);
}

}  // namespace

void RunOptimalityFigure(const FigureConfig& config) {
  std::cout << "=== " << config.title << " ===\n";
  std::cout << "n=" << config.num_fields << "  M=" << config.num_devices
            << "  small F=" << config.small_size
            << "  big F=" << config.big_size << "  FX family="
            << (config.family == PlanFamily::kIU1 ? "I/U/IU1" : "I/U/IU2")
            << "\n";
  std::cout << "MD/FD columns follow the paper (sufficient conditions); "
               "FD-empirical is ground truth.\n";

  std::vector<std::string> headers = {"L (small fields)", "MD %", "FD %"};
  if (config.with_empirical) headers.push_back("FD empirical %");
  TablePrinter table(headers);
  std::vector<std::vector<std::string>> csv_rows;

  for (unsigned small = 0; small <= config.num_fields; ++small) {
    std::vector<std::uint64_t> sizes(config.num_fields, config.big_size);
    for (unsigned i = 0; i < small; ++i) sizes[i] = config.small_size;
    auto spec = FieldSpec::Create(sizes, config.num_devices).value();
    TransformPlan plan = TransformPlan::Plan(spec, config.family);

    const double md = ModuloAnalyticOptimality(spec).probability;
    const double fd = FxAnalyticOptimality(spec, plan.kinds()).probability;

    std::vector<std::string> row = {std::to_string(small),
                                    TablePrinter::Cell(100.0 * md, 1),
                                    TablePrinter::Cell(100.0 * fd, 1)};
    if (config.with_empirical) {
      auto fx = FXDistribution::WithPlan(plan);
      row.push_back(
          TablePrinter::Cell(100.0 * EmpiricalMaskFraction(*fx), 1));
    }
    csv_rows.push_back(row);
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  MaybeWriteCsv(config.csv_name, headers, csv_rows);
  std::cout << "\n";
}

void RunLargestResponseTable(const TableConfig& config) {
  auto spec =
      FieldSpec::Create(config.field_sizes, config.num_devices).value();
  std::cout << "=== " << config.title << " ===\n";
  std::cout << spec.ToString() << "  FX=" << config.fx_spec << "\n";

  const std::vector<std::string> method_names = {
      "modulo", "gdm1", "gdm2", "gdm3", config.fx_spec};
  std::vector<std::unique_ptr<DistributionMethod>> methods;
  for (const auto& name : method_names) {
    methods.push_back(MakeDistribution(spec, name).value());
  }

  const std::vector<std::string> headers = {"k",    "Modulo", "GDM1",
                                            "GDM2", "GDM3",   "FX",
                                            "Optimal"};
  TablePrinter table(headers);
  std::vector<std::vector<std::string>> csv_rows;
  for (unsigned k = config.k_min; k <= config.k_max; ++k) {
    std::vector<double> sums(methods.size(), 0.0);
    double optimal_sum = 0.0;
    std::uint64_t subsets = 0;
    ForEachSubsetOfSize(
        spec.num_fields(), k, [&](const std::vector<unsigned>& subset) {
          std::uint64_t mask = 0;
          std::uint64_t qualified = 1;
          for (unsigned f : subset) {
            mask |= std::uint64_t{1} << f;
            qualified *= spec.field_size(f);
          }
          for (std::size_t i = 0; i < methods.size(); ++i) {
            sums[i] += static_cast<double>(
                MaskResponse(*methods[i], mask).Max());
          }
          optimal_sum += static_cast<double>(
              CeilDiv(qualified, spec.num_devices()));
          ++subsets;
          return true;
        });
    std::vector<std::string> row = {std::to_string(k)};
    for (double s : sums) {
      row.push_back(
          TablePrinter::Cell(s / static_cast<double>(subsets), 1));
    }
    row.push_back(TablePrinter::Cell(
        optimal_sum / static_cast<double>(subsets), 1));
    csv_rows.push_back(row);
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  MaybeWriteCsv(config.csv_name, headers, csv_rows);
  std::cout << "\n";
}

PassTimes TimePasses(std::size_t passes, const std::function<void()>& pass) {
  std::vector<double> ms(std::max<std::size_t>(1, passes));
  for (double& pass_ms : ms) {
    const auto start = std::chrono::steady_clock::now();
    pass();
    pass_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  }
  std::sort(ms.begin(), ms.end());
  const auto at = [&ms](double q) {
    return ms[static_cast<std::size_t>(
        q * static_cast<double>(ms.size() - 1) + 0.5)];
  };
  return {at(0.5), at(0.1), at(0.9)};
}

double Rate(std::size_t ops, double ms) {
  return ms <= 0.0 ? 0.0 : static_cast<double>(ops) / (ms / 1e3);
}

std::string RateCell(std::size_t ops, const PassTimes& times) {
  char cell[96];
  std::snprintf(cell, sizeof(cell), "%.0f [%.0f-%.0f]",
                Rate(ops, times.median_ms), Rate(ops, times.p90_ms),
                Rate(ops, times.p10_ms));
  return cell;
}

}  // namespace fxdist::bench
