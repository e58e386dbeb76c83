#include "checks.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/validate.h"

namespace hispar::bench {

namespace fs = std::filesystem;

bool CheckLog::expect(bool ok, const std::string& what) {
  ++checked_;
  if (!ok) failures_.push_back(what);
  return ok;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::size_t csv_rows(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines == 0 ? 0 : lines - 1;
}

bool same_bytes(const std::string& a, const std::string& b) {
  if (!fs::exists(a) || !fs::exists(b)) return false;
  if (fs::file_size(a) != fs::file_size(b)) return false;
  return read_file(a) == read_file(b);
}

std::string log_tail(const std::string& path, std::size_t max_bytes) {
  try {
    const std::string text = read_file(path);
    return text.size() <= max_bytes ? text
                                    : text.substr(text.size() - max_bytes);
  } catch (const std::exception&) {
    return "(no log)";
  }
}

ListShape read_list_shape(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read list " + path);
  ListShape shape;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    ++shape.urls;
    // domain,bootstrap_rank,kind,page_index,url
    const auto first = line.find(',');
    const auto second =
        first == std::string::npos ? first : line.find(',', first + 1);
    if (second != std::string::npos &&
        line.compare(second + 1, 8, "landing,") == 0)
      ++shape.sites;
  }
  return shape;
}

std::uint64_t ledger_billed_queries(const std::string& path) {
  std::istringstream in(read_file(path));
  std::string line;
  std::getline(in, line);
  // week,provider,queries,speculative_queries,total_queries,...
  while (std::getline(in, line)) {
    if (line.rfind("total,google,", 0) != 0) continue;
    std::vector<std::string> fields;
    std::stringstream row(line);
    std::string field;
    while (std::getline(row, field, ',')) fields.push_back(field);
    if (fields.size() < 5) break;
    return std::stoull(fields[4]);
  }
  throw std::runtime_error("ledger " + path + " has no total,google row");
}

std::uint64_t summary_failed_fetches(const std::string& log_path) {
  std::istringstream in(read_file(log_path));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("campaign: ", 0) != 0) continue;
    const auto end = line.find(" failed fetches");
    if (end == std::string::npos) break;
    const auto start = line.rfind(' ', end - 1);
    return std::stoull(line.substr(start + 1, end - start - 1));
  }
  throw std::runtime_error("no campaign summary line in " + log_path);
}

VantageReportTotals read_vantage_report(const std::string& path) {
  const obs::JsonValue doc = obs::parse_json(read_file(path));
  const obs::JsonValue* lines = doc.find("vantage_lines");
  if (lines == nullptr || !lines->is(obs::JsonValue::Type::kArray))
    throw std::runtime_error(path + ": no vantage_lines");
  VantageReportTotals totals;
  for (const auto& line : lines->array) {
    ++totals.vantages;
    if (const auto* v = line.find("failed_fetches"))
      totals.failed_fetches += static_cast<std::uint64_t>(v->number);
    if (const auto* v = line.find("sites_quarantined"))
      totals.sites_quarantined += static_cast<std::uint64_t>(v->number);
  }
  return totals;
}

namespace {

template <typename Validator>
std::string validate_file(const std::string& path, Validator validate) {
  try {
    validate(read_file(path));
    return "";
  } catch (const std::exception& error) {
    return error.what();
  }
}

}  // namespace

std::string validate_report_file(const std::string& path) {
  return validate_file(path, obs::validate_report_json);
}

std::string validate_metrics_file(const std::string& path) {
  return validate_file(path, obs::validate_metrics_json);
}

std::string validate_trace_file(const std::string& path) {
  return validate_file(path, obs::validate_trace_json);
}

}  // namespace hispar::bench
