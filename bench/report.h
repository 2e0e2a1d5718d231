// The report document of the bench drivers (bench/suite, bench/fuzz): an
// ordered tree of objects, arrays and scalars, built once from the reduced
// results and printed by one of two writers.
//
//   WriteJson   the --json report: the whole document on one line, members
//               in the order they were added.
//   WriteText   the human report: one fixed-width table per array of
//               objects (nested objects flatten into "a.b" columns), every
//               other value as a "path: value" line. Values read exactly as
//               in the JSON. A table whose rows are keyed by "workload" ends
//               with Average / Median / Maximum rows over each numeric
//               column, repeated over the C rows when the rows carry "lang".
#ifndef CPI_BENCH_REPORT_H_
#define CPI_BENCH_REPORT_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/support/check.h"
#include "src/support/stats.h"
#include "src/support/table.h"

namespace cpi::bench {

class Node {
 public:
  Node() = default;  // null
  Node(bool b) : kind_(Kind::kScalar), text_(b ? "true" : "false") {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>, int> = 0>
  Node(T v) : kind_(Kind::kNumber), text_(std::to_string(v)), value_(static_cast<double>(v)) {}
  Node(double) = delete;  // a number says how it prints: Node::Number
  Node(std::string s) : kind_(Kind::kString), text_(std::move(s)) {}
  Node(const char* s) : Node(std::string(s)) {}

  // `v` printed with `decimals` digits after the point (printf "%.*f").
  static Node Number(double v, int decimals = 3) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    Node n;
    n.kind_ = Kind::kNumber;
    n.text_ = buf;
    n.value_ = v;
    return n;
  }
  static Node Object() { return Node(Kind::kObject); }
  static Node Array() { return Node(Kind::kArray); }

  // Appends a member to an object; returns the object.
  Node& Add(std::string key, Node value) {
    CPI_CHECK(kind_ == Kind::kObject);
    children_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  // Appends an element to an array; returns the array.
  Node& Push(Node value) {
    CPI_CHECK(kind_ == Kind::kArray);
    children_.emplace_back(std::string(), std::move(value));
    return *this;
  }

  // The node as JSON.
  std::string Json() const {
    std::string out;
    AppendJson(&out);
    return out;
  }
  // An object's members as the text report: tables and "path: value" lines.
  void PrintText(const std::string& path = "") const;

 private:
  // kScalar: null, true, false.
  enum class Kind { kScalar, kNumber, kString, kArray, kObject };
  explicit Node(Kind kind) : kind_(kind) {}

  bool IsTable() const {
    if (kind_ != Kind::kArray || children_.empty()) {
      return false;
    }
    for (const auto& [key, row] : children_) {
      if (row.kind_ != Kind::kObject) {
        return false;
      }
    }
    return true;
  }
  // A leaf as the text report shows it: strings unquoted, arrays as JSON.
  std::string Text() const {
    return kind_ == Kind::kArray || kind_ == Kind::kObject ? Json() : text_;
  }
  // (column, value) pairs of a table row; nested objects flatten to "a.b".
  void Flatten(const std::string& prefix,
               std::vector<std::pair<std::string, const Node*>>* cells) const {
    for (const auto& [key, value] : children_) {
      const std::string name = prefix.empty() ? key : prefix + "." + key;
      if (value.kind_ == Kind::kObject) {
        value.Flatten(name, cells);
      } else {
        cells->emplace_back(name, &value);
      }
    }
  }
  void AppendJson(std::string* out) const;
  void PrintTable(const std::string& title) const;

  Kind kind_ = Kind::kScalar;
  std::string text_ = "null";  // a scalar, number or string as printed
  double value_ = 0;           // a number's value
  std::vector<std::pair<std::string, Node>> children_;  // array elements: key ""
};

inline void Node::AppendJson(std::string* out) const {
  switch (kind_) {
    case Node::Kind::kScalar:
    case Node::Kind::kNumber:
      *out += text_;
      return;
    case Node::Kind::kString:
      *out += '"';
      for (char c : text_) {
        if (c == '"' || c == '\\') {
          *out += '\\';
        }
        *out += c;
      }
      *out += '"';
      return;
    case Node::Kind::kArray:
    case Node::Kind::kObject: {
      const bool object = kind_ == Node::Kind::kObject;
      *out += object ? '{' : '[';
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i != 0) {
          *out += ',';
        }
        if (object) {
          Node(children_[i].first).AppendJson(out);
          *out += ':';
        }
        children_[i].second.AppendJson(out);
      }
      *out += object ? '}' : ']';
      return;
    }
  }
}

inline void WriteJson(const Node& doc) { std::printf("%s\n", doc.Json().c_str()); }

inline void Node::PrintText(const std::string& path) const {
  for (const auto& [key, value] : children_) {
    const std::string name = path.empty() ? key : path + "." + key;
    if (value.kind_ == Kind::kObject) {
      value.PrintText(name);
    } else if (value.IsTable()) {
      value.PrintTable(name);
    } else {
      std::printf("%s: %s\n", name.c_str(), value.Text().c_str());
    }
  }
}

inline void Node::PrintTable(const std::string& title) const {
  std::vector<std::vector<std::pair<std::string, const Node*>>> rows;
  std::vector<std::string> header;
  for (const auto& [unused, row] : children_) {
    rows.emplace_back();
    row.Flatten("", &rows.back());
    for (const auto& [column, value] : rows.back()) {
      if (std::find(header.begin(), header.end(), column) == header.end()) {
        header.push_back(column);
      }
    }
  }
  // The value of `column` in `row`, or null when the row lacks it.
  const auto find = [](const std::vector<std::pair<std::string, const Node*>>& row,
                       const std::string& column) -> const Node* {
    for (const auto& [name, value] : row) {
      if (name == column) {
        return value;
      }
    }
    return nullptr;
  };
  Table table(header);
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    for (const std::string& column : header) {
      const Node* value = find(row, column);
      cells.push_back(value == nullptr ? "" : value->Text());
    }
    table.AddRow(std::move(cells));
  }
  if (header[0] == "workload") {
    const bool by_lang = std::find(header.begin(), header.end(), "lang") != header.end();
    const struct {
      const char* label;
      double (*reduce)(const std::vector<double>&);
    } summaries[] = {
        {"Average", [](const std::vector<double>& xs) { return Mean(xs); }},
        {"Median", [](const std::vector<double>& xs) { return Median(xs); }},
        {"Maximum", [](const std::vector<double>& xs) { return Max(xs); }},
    };
    for (const char* lang : {"", "C"}) {
      if (*lang != '\0' && !by_lang) {
        break;
      }
      table.AddSeparator();
      for (const auto& s : summaries) {
        std::vector<std::string> cells = {
            std::string(s.label) + (!by_lang ? "" : *lang == '\0' ? " (C/C++)" : " (C only)")};
        for (size_t c = 1; c < header.size(); ++c) {
          std::vector<double> xs;
          for (const auto& row : rows) {
            const Node* value = find(row, header[c]);
            const Node* row_lang = find(row, "lang");
            if (value != nullptr && value->kind_ == Kind::kNumber &&
                (*lang == '\0' || (row_lang != nullptr && row_lang->text_ == lang))) {
              xs.push_back(value->value_);
            }
          }
          cells.push_back(xs.empty() ? "" : Number(s.reduce(xs)).text_);
        }
        table.AddRow(std::move(cells));
      }
    }
  }
  std::printf("\n%s\n\n", title.c_str());
  table.Print();
  std::printf("\n");
}

inline void WriteText(const Node& doc) { doc.PrintText(); }

}  // namespace cpi::bench

#endif  // CPI_BENCH_REPORT_H_
