// Output checks and artifact readers for the end-to-end benchmark.
//
// Every timed command's artifacts are read back after the timer stops:
// row counts against the list, report schemas through obs::validate,
// byte identity where the determinism contract promises it. A failed
// check is recorded, never thrown, so one run reports every failure it
// finds; the driver exits non-zero when any was recorded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hispar::bench {

class CheckLog {
 public:
  // Records `what` as failed unless `ok`. Returns `ok`.
  bool expect(bool ok, const std::string& what);
  bool passed() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::size_t count() const { return checked_; }

 private:
  std::vector<std::string> failures_;
  std::size_t checked_ = 0;
};

// Whole file as bytes; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

// Data lines of a CSV with one header line (0 for a missing file).
std::size_t csv_rows(const std::string& path);

// Byte identity of two files; false when either is missing.
bool same_bytes(const std::string& a, const std::string& b);

// The last `max_bytes` of a command log, for failure messages.
std::string log_tail(const std::string& path, std::size_t max_bytes = 600);

// What one list CSV holds.
struct ListShape {
  std::size_t sites = 0;
  std::size_t urls = 0;
  std::size_t landing_fetches(int loads) const {
    return sites * static_cast<std::size_t>(loads);
  }
  // Page fetches the §3.1 protocol attempts over this list.
  std::size_t page_fetches(int loads) const {
    return landing_fetches(loads) + (urls - sites);
  }
};
ListShape read_list_shape(const std::string& path);

// total_queries (consumed + speculative) of the ledger's "total,google"
// row; throws std::runtime_error when absent.
std::uint64_t ledger_billed_queries(const std::string& path);

// "N failed fetches" from the `campaign:` summary line of a measure
// log; throws std::runtime_error when absent.
std::uint64_t summary_failed_fetches(const std::string& log_path);

// Totals over the vantage_lines of a hispar-vantage-report-v1 file.
struct VantageReportTotals {
  std::size_t vantages = 0;
  std::uint64_t failed_fetches = 0;
  std::uint64_t sites_quarantined = 0;
};
VantageReportTotals read_vantage_report(const std::string& path);

// obs::validate_report_json / validate_metrics_json /
// validate_trace_json over a file; an empty string means valid,
// otherwise the validator's message.
std::string validate_report_file(const std::string& path);
std::string validate_metrics_file(const std::string& path);
std::string validate_trace_file(const std::string& path);

}  // namespace hispar::bench
