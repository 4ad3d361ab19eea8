#include "sweep/columnar.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/fmt.h"
#include "core/fields.h"

namespace hicc::sweep {

void ColumnarTable::add_row(const std::map<std::string, double>& row) {
  for (const auto& [key, value] : row) {
    auto [it, inserted] = columns_.try_emplace(key);
    if (inserted) it->second.assign(rows_, 0.0);  // backfill earlier rows
    it->second.push_back(value);
  }
  ++rows_;
  // Fields absent from this row get an explicit 0.0 so every column
  // stays rectangular.
  for (auto& [key, column] : columns_) {
    if (column.size() < rows_) column.push_back(0.0);
  }
}

std::vector<std::string> ColumnarTable::fields() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& [key, column] : columns_) names.push_back(key);
  return names;
}

const std::vector<double>& ColumnarTable::column(const std::string& field) const {
  static const std::vector<double> kEmpty;
  const auto it = columns_.find(field);
  return it != columns_.end() ? it->second : kEmpty;
}

void ColumnarTable::write(std::ostream& os) const {
  os << "{\n  \"schema\": \"hicc.sweepc.v1\",\n  \"points\": " << rows_
     << ",\n  \"fields\": [";
  bool first = true;
  for (const auto& [key, column] : columns_) {
    os << (first ? "" : ", ") << '"' << key << '"';
    first = false;
  }
  os << "],\n  \"columns\": {";
  first = true;
  for (const auto& [key, column] : columns_) {
    os << (first ? "\n" : ",\n") << "    \"" << key << "\": [";
    first = false;
    for (std::size_t i = 0; i < column.size(); ++i) {
      if (i != 0) os << ", ";
      put_double(os, column[i]);
    }
    os << "]";
  }
  os << (columns_.empty() ? "" : "\n  ") << "}\n}\n";
}

bool ColumnarTable::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write(out);
  return static_cast<bool>(out);
}

namespace {

/// Minimal tokenizer for the exact grammar write() emits (a strict
/// subset of JSON: string keys, double values, flat arrays).
class Lexer {
 public:
  explicit Lexer(std::istream& is) : is_(is) {}

  bool expect(char c) {
    skip_ws();
    return is_.get() == c;
  }
  bool peek_is(char c) {
    skip_ws();
    return is_.peek() == c;
  }
  bool string(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    for (int c = is_.get(); c != '"'; c = is_.get()) {
      if (c == EOF || c == '\\') return false;  // write() never escapes
      out->push_back(static_cast<char>(c));
    }
    return true;
  }
  bool number(double* out) {
    skip_ws();
    return static_cast<bool>(is_ >> *out);
  }

 private:
  void skip_ws() {
    while (std::isspace(is_.peek())) is_.get();
  }
  std::istream& is_;
};

}  // namespace

bool ColumnarTable::parse(std::istream& is, ColumnarTable* out) {
  Lexer lex(is);
  std::string key;
  std::string schema;
  double points = 0.0;
  if (!lex.expect('{')) return false;
  if (!lex.string(&key) || key != "schema" || !lex.expect(':')) return false;
  if (!lex.string(&schema) || schema != "hicc.sweepc.v1") return false;
  if (!lex.expect(',') || !lex.string(&key) || key != "points" || !lex.expect(':')) return false;
  if (!lex.number(&points) || points < 0.0) return false;

  // The "fields" array is redundant with the "columns" keys; read and
  // remember it to cross-check.
  if (!lex.expect(',') || !lex.string(&key) || key != "fields" || !lex.expect(':')) return false;
  if (!lex.expect('[')) return false;
  std::vector<std::string> fields;
  if (!lex.peek_is(']')) {
    do {
      std::string name;
      if (!lex.string(&name)) return false;
      fields.push_back(std::move(name));
    } while (lex.peek_is(',') && lex.expect(','));
  }
  if (!lex.expect(']')) return false;

  if (!lex.expect(',') || !lex.string(&key) || key != "columns" || !lex.expect(':')) return false;
  if (!lex.expect('{')) return false;
  ColumnarTable table;
  table.rows_ = static_cast<std::size_t>(points);
  std::size_t parsed = 0;
  if (!table.columns_.empty()) return false;
  while (!lex.peek_is('}')) {
    if (parsed > 0 && !lex.expect(',')) return false;
    std::string name;
    if (!lex.string(&name) || !lex.expect(':') || !lex.expect('[')) return false;
    std::vector<double> column;
    column.reserve(table.rows_);
    if (!lex.peek_is(']')) {
      do {
        double v = 0.0;
        if (!lex.number(&v)) return false;
        column.push_back(v);
      } while (lex.peek_is(',') && lex.expect(','));
    }
    if (!lex.expect(']')) return false;
    if (column.size() != table.rows_) return false;
    table.columns_.emplace(std::move(name), std::move(column));
    ++parsed;
  }
  if (!lex.expect('}') || !lex.expect('}')) return false;
  if (parsed != fields.size()) return false;
  for (const std::string& f : fields) {
    if (table.columns_.find(f) == table.columns_.end()) return false;
  }
  *out = std::move(table);
  return true;
}

std::map<std::string, double> flatten(const SweepResult& r) {
  std::map<std::string, double> row;
  row["index"] = static_cast<double>(r.index);
  row["wall_seconds"] = r.wall_seconds;
  // Numeric config fields, in the units the sweep record uses.
  fields::visit_host(r.config, [&row](const fields::Field& f, const auto& value) {
    if constexpr (fields::kNumeric<std::remove_cvref_t<decltype(value)>>) {
      row[std::string("config.") + f.key] = std::strtod(fields::to_text(value).c_str(), nullptr);
    }
  });
  // Numeric metrics; run_status as its integer code.
  fields::visit_metrics(r.metrics, [&row](const char* key, const auto& value) {
    if constexpr (!std::is_same_v<std::remove_cvref_t<decltype(value)>, std::string>) {
      row[std::string("metrics.") + key] = static_cast<double>(value);
    }
  });
  for (const auto& [key, value] : r.extra) row["extra." + key] = value;
  return row;
}

void write_columnar(const std::vector<SweepResult>& results, std::ostream& os) {
  ColumnarTable table;
  for (const SweepResult& r : results) table.add_row(flatten(r));
  table.write(os);
}

bool save_columnar(const std::vector<SweepResult>& results, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_columnar(results, out);
  return static_cast<bool>(out);
}

}  // namespace hicc::sweep
