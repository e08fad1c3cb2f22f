#include "serve/graph_json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"

namespace sgcl {
namespace serve {
namespace {

Status GraphError(size_t index, const std::string& message) {
  return Status::InvalidArgument(
      StrFormat("graphs[%zu]: %s", index, message.c_str()));
}

// Streaming single-pass scanner for the /v1/embed request shape. The
// request body is the hottest input on the serving path (every feature
// of every node arrives as a JSON number), and the generic JsonValue DOM
// costs a heap node per number — for a 16-graph request that is
// thousands of allocations before the first forward runs. This scanner
// tokenizes in place: numbers go straight into the Graph feature/edge
// arrays (with a fast path for the bare integers that dominate one-hot
// feature encodings and edge lists), strings and unknown keys are
// skipped without materializing values, and only the final Graph
// storage is allocated. Key order is free and unknown keys are
// tolerated, matching the DOM parser it replaces; so are the error
// messages, which tests pin. A repeated known key is an error: merging
// or overwriting either copy would hide a client bug, and a repeated
// "graphs" would escape the per-request graph limit.
class GraphsRequestScanner {
 public:
  GraphsRequestScanner(const std::string& body, int64_t feat_dim,
                       const RequestLimits& limits)
      : text_(body), feat_dim_(feat_dim), limits_(limits) {}

  Result<std::vector<Graph>> Run() {
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    if (text_[pos_] != '{') {
      return Status::InvalidArgument("request body must be a JSON object");
    }
    ++pos_;
    bool saw_graphs = false;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
    } else {
      for (;;) {
        std::string key;
        SGCL_RETURN_NOT_OK(ParseKey(&key));
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Error("expected ':' after object key");
        }
        ++pos_;
        if (key == "graphs") {
          if (saw_graphs) {
            return Status::InvalidArgument("repeated field \"graphs\"");
          }
          saw_graphs = true;
          SGCL_RETURN_NOT_OK(ParseGraphsArray());
        } else {
          SGCL_RETURN_NOT_OK(SkipValue(/*depth=*/1));
        }
        SkipWs();
        if (pos_ >= text_.size()) return Error("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          break;
        }
        return Error("expected ',' or '}' in object");
      }
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    if (!saw_graphs) {
      return Status::InvalidArgument(
          "missing required array field \"graphs\"");
    }
    if (graphs_.empty()) {
      return Status::InvalidArgument("\"graphs\" must not be empty");
    }
    return std::move(graphs_);
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  static bool IsNumberChar(char c) {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
  }

  // Parses one number token at pos_ (no leading whitespace). Bare
  // integers — one-hot features, edge endpoints, num_nodes — take the
  // digit-accumulation fast path; everything else falls back to strtod
  // over the in-place token, with the same accept/reject behavior as
  // the DOM parser (token chars scanned first, then strtod must consume
  // exactly the token).
  Status ParseNumber(double* out) {
    const size_t start = pos_;
    size_t p = pos_;
    uint64_t acc = 0;
    while (p < text_.size() && text_[p] >= '0' && text_[p] <= '9') {
      acc = acc * 10 + static_cast<uint64_t>(text_[p] - '0');
      ++p;
      if (p - start > 15) break;
    }
    if (p > start && p - start <= 15 &&
        (p >= text_.size() || !IsNumberChar(text_[p]))) {
      *out = static_cast<double>(acc);
      pos_ = p;
      return Status::OK();
    }
    while (pos_ < text_.size() && IsNumberChar(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("invalid value");
    char* end = nullptr;
    const double v = std::strtod(text_.c_str() + start, &end);
    if (end != text_.c_str() + pos_) {
      pos_ = start;
      return Error("malformed number '" +
                   text_.substr(start, pos_ - start) + "'");
    }
    *out = v;
    return Status::OK();
  }

  // Object keys never carry escapes in practice; a key containing a
  // backslash is still scanned correctly but will simply not match any
  // known field name and its value gets skipped.
  Status ParseKey(std::string* key) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected object key string");
    }
    const size_t start = ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        key->assign(text_, start, pos_ - start);
        ++pos_;
        return Status::OK();
      }
      pos_ += c == '\\' ? 2 : 1;
    }
    return Error("unterminated string");
  }

  Status SkipString() {
    ++pos_;  // opening '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      pos_ += c == '\\' ? 2 : 1;
    }
    return Error("unterminated string");
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  // Skips one JSON value of any shape (used for unknown fields).
  Status SkipValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '"':
        return SkipString();
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        return Status::OK();
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        return Status::OK();
      case '{':
      case '[': {
        const char close = c == '{' ? '}' : ']';
        ++pos_;
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == close) {
          ++pos_;
          return Status::OK();
        }
        for (;;) {
          if (close == '}') {
            std::string key;
            SGCL_RETURN_NOT_OK(ParseKey(&key));
            SkipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
              return Error("expected ':' after object key");
            }
            ++pos_;
          }
          SGCL_RETURN_NOT_OK(SkipValue(depth + 1));
          SkipWs();
          if (pos_ >= text_.size()) return Error("unterminated value");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == close) {
            ++pos_;
            return Status::OK();
          }
          return Error("expected ',' or close bracket");
        }
      }
      default: {
        double ignored;
        return ParseNumber(&ignored);
      }
    }
  }

  Status ParseGraphsArray() {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '[') {
      return Status::InvalidArgument(
          "missing required array field \"graphs\"");
    }
    ++pos_;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    for (size_t index = 0;; ++index) {
      if (static_cast<int64_t>(index) >= limits_.max_graphs) {
        return Status::InvalidArgument(
            StrFormat("request exceeds the %lld-graph limit",
                      static_cast<long long>(limits_.max_graphs)));
      }
      SGCL_RETURN_NOT_OK(ParseGraphItem(index));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        SkipWs();
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseGraphItem(size_t index) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '{') {
      return GraphError(index, "must be a JSON object");
    }
    ++pos_;
    bool saw_num_nodes = false;
    bool saw_features = false;
    bool saw_edges = false;
    double num_nodes_raw = 0.0;
    features_.clear();
    edges_.clear();
    size_t feature_count = 0;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
    } else {
      for (;;) {
        std::string key;
        SGCL_RETURN_NOT_OK(ParseKey(&key));
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Error("expected ':' after object key");
        }
        ++pos_;
        SkipWs();
        if (key == "num_nodes") {
          if (saw_num_nodes) return RepeatedField(index, key);
          if (pos_ >= text_.size() || !LooksNumeric(text_[pos_])) {
            return GraphError(index, "missing numeric field \"num_nodes\"");
          }
          SGCL_RETURN_NOT_OK(ParseNumber(&num_nodes_raw));
          saw_num_nodes = true;
        } else if (key == "features") {
          if (saw_features) return RepeatedField(index, key);
          saw_features = true;
          SGCL_RETURN_NOT_OK(ParseFeatures(index, &feature_count));
        } else if (key == "edges") {
          if (saw_edges) return RepeatedField(index, key);
          saw_edges = true;
          SGCL_RETURN_NOT_OK(ParseEdges(index));
        } else {
          SGCL_RETURN_NOT_OK(SkipValue(/*depth=*/2));
        }
        SkipWs();
        if (pos_ >= text_.size()) return Error("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          SkipWs();
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          break;
        }
        return Error("expected ',' or '}' in object");
      }
    }

    if (!saw_num_nodes) {
      return GraphError(index, "missing numeric field \"num_nodes\"");
    }
    if (num_nodes_raw < 1 || num_nodes_raw != std::floor(num_nodes_raw) ||
        num_nodes_raw > 1e9) {
      return GraphError(index, "\"num_nodes\" must be a positive integer");
    }
    const int64_t num_nodes = static_cast<int64_t>(num_nodes_raw);
    total_nodes_ += num_nodes;
    if (total_nodes_ > limits_.max_total_nodes) {
      return Status::InvalidArgument(
          StrFormat("request exceeds the %lld-node limit",
                    static_cast<long long>(limits_.max_total_nodes)));
    }
    if (!saw_features) {
      return GraphError(index, "missing array field \"features\"");
    }
    if (static_cast<int64_t>(feature_count) != num_nodes * feat_dim_) {
      return GraphError(
          index, StrFormat("\"features\" has %zu values; expected num_nodes "
                           "* feat_dim = %lld * %lld = %lld",
                           feature_count, static_cast<long long>(num_nodes),
                           static_cast<long long>(feat_dim_),
                           static_cast<long long>(num_nodes * feat_dim_)));
    }

    Graph graph(num_nodes, feat_dim_);
    graph.mutable_features() = features_;
    for (size_t j = 0; j + 1 < edges_.size(); j += 2) {
      const double a = edges_[j];
      const double b = edges_[j + 1];
      if (a != std::floor(a) || b != std::floor(b) || a < 0 || b < 0 ||
          a >= static_cast<double>(num_nodes) ||
          b >= static_cast<double>(num_nodes)) {
        return GraphError(
            index, StrFormat("edge (%g, %g) out of range for %lld nodes", a,
                             b, static_cast<long long>(num_nodes)));
      }
      graph.AddUndirectedEdge(static_cast<int64_t>(a),
                              static_cast<int64_t>(b));
    }
    SGCL_RETURN_NOT_OK(graph.Validate());
    graphs_.push_back(std::move(graph));
    return Status::OK();
  }

  static Status RepeatedField(size_t index, const std::string& key) {
    return GraphError(index, "repeated field \"" + key + "\"");
  }

  static bool LooksNumeric(char c) {
    return (c >= '0' && c <= '9') || c == '-';
  }

  // Tight loop over the feature array — the bulk of every request's
  // bytes. Values land in features_ (reused across graphs); counting
  // continues past the expected length so the mismatch error can report
  // the actual count like the DOM parser did.
  Status ParseFeatures(size_t index, size_t* count) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '[') {
      return GraphError(index, "missing array field \"features\"");
    }
    ++pos_;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *count = 0;
      return Status::OK();
    }
    size_t n = 0;
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || !LooksNumeric(text_[pos_])) {
        return GraphError(index,
                          StrFormat("features[%zu] is not a number", n));
      }
      double v;
      SGCL_RETURN_NOT_OK(ParseNumber(&v));
      if (!std::isfinite(v)) {
        return GraphError(index,
                          StrFormat("features[%zu] is not finite", n));
      }
      features_.push_back(static_cast<float>(v));
      ++n;
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *count = n;
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseEdges(size_t index) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '[') {
      return GraphError(index,
                        "\"edges\" must be a flat [src, dst, ...] array");
    }
    ++pos_;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || !LooksNumeric(text_[pos_])) {
        return GraphError(
            index, StrFormat("edges[%zu..] is not a number pair",
                             edges_.size() & ~size_t{1}));
      }
      double v;
      SGCL_RETURN_NOT_OK(ParseNumber(&v));
      edges_.push_back(v);
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        break;
      }
      return Error("expected ',' or ']' in array");
    }
    if (edges_.size() % 2 != 0) {
      return GraphError(index,
                        "\"edges\" must have an even number of values");
    }
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
  const int64_t feat_dim_;
  const RequestLimits limits_;
  std::vector<Graph> graphs_;
  int64_t total_nodes_ = 0;
  // Per-item scratch, reused so steady-state parsing does not allocate.
  std::vector<float> features_;
  std::vector<double> edges_;
};

}  // namespace

Result<std::vector<Graph>> ParseGraphsRequest(const std::string& body,
                                              int64_t feat_dim,
                                              const RequestLimits& limits) {
  return GraphsRequestScanner(body, feat_dim, limits).Run();
}

std::string FormatRowsResponse(const std::string& key,
                               const std::vector<std::vector<float>>& rows,
                               int64_t dim_or_negative) {
  std::string out = "{\"" + key + "\":[";
  char buf[32];
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (j > 0) out += ',';
      const float v = rows[i][j];
      if (std::isfinite(v)) {
        std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
        out += buf;
      } else {
        out += "null";
      }
    }
    out += ']';
  }
  out += ']';
  if (dim_or_negative >= 0) {
    out += StrFormat(",\"dim\":%lld", static_cast<long long>(dim_or_negative));
  }
  out += "}\n";
  return out;
}

}  // namespace serve
}  // namespace sgcl
