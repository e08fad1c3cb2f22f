// Wire-format tests for the serving JSON: strict parsing with
// per-graph error messages, request limits, and float32-exact response
// formatting.
#include "serve/graph_json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace sgcl {
namespace serve {
namespace {

const char kValidBody[] =
    "{\"graphs\":[{\"num_nodes\":3,"
    "\"features\":[0.1,0.2,1.0,1.5,-2.0,0.0],"
    "\"edges\":[0,1,1,2]}]}";

RequestLimits DefaultLimits() { return RequestLimits{}; }

TEST(GraphJsonTest, ParsesValidRequest) {
  auto graphs = ParseGraphsRequest(kValidBody, /*feat_dim=*/2,
                                   DefaultLimits());
  ASSERT_TRUE(graphs.ok()) << graphs.status().ToString();
  ASSERT_EQ(graphs->size(), 1u);
  const Graph& g = (*graphs)[0];
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.feat_dim(), 2);
  EXPECT_FLOAT_EQ(g.feature(0, 0), 0.1f);
  EXPECT_FLOAT_EQ(g.feature(2, 1), 0.0f);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphJsonTest, EdgesFieldIsOptional) {
  auto graphs = ParseGraphsRequest(
      "{\"graphs\":[{\"num_nodes\":2,\"features\":[1,2,3,4]}]}", 2,
      DefaultLimits());
  ASSERT_TRUE(graphs.ok()) << graphs.status().ToString();
  EXPECT_EQ((*graphs)[0].num_directed_edges(), 0);
}

TEST(GraphJsonTest, RejectsMalformedShapes) {
  const RequestLimits limits = DefaultLimits();
  const struct {
    const char* body;
    const char* needle;  // expected fragment of the error message
  } kCases[] = {
      {"not json at all", ""},
      {"[1,2,3]", "JSON object"},
      {"{}", "\"graphs\""},
      {"{\"graphs\":{}}", "\"graphs\""},
      {"{\"graphs\":[]}", "empty"},
      {"{\"graphs\":[42]}", "graphs[0]"},
      {"{\"graphs\":[{\"features\":[1,2]}]}", "num_nodes"},
      {"{\"graphs\":[{\"num_nodes\":0,\"features\":[]}]}", "positive"},
      {"{\"graphs\":[{\"num_nodes\":1.5,\"features\":[1,2]}]}", "positive"},
      {"{\"graphs\":[{\"num_nodes\":1}]}", "features"},
      {"{\"graphs\":[{\"num_nodes\":2,\"features\":[1,2,3]}]}", "expected"},
      {"{\"graphs\":[{\"num_nodes\":1,\"features\":[1,\"x\"]}]}",
       "not a number"},
      {"{\"graphs\":[{\"num_nodes\":2,\"features\":[1,2,3,4],"
       "\"edges\":[0]}]}",
       "even number"},
      {"{\"graphs\":[{\"num_nodes\":2,\"features\":[1,2,3,4],"
       "\"edges\":[0,5]}]}",
       "out of range"},
      {"{\"graphs\":[{\"num_nodes\":2,\"features\":[1,2,3,4],"
       "\"edges\":[0,-1]}]}",
       "out of range"},
      {"{\"graphs\":[{\"num_nodes\":2,\"features\":[1,2,3,4],"
       "\"edges\":7}]}",
       "edges"},
      {"{\"graphs\":[{\"num_nodes\":1,\"features\":[1,2]}],"
       "\"graphs\":[{\"num_nodes\":1,\"features\":[1,2]}]}",
       "repeated field \"graphs\""},
      {"{\"graphs\":[{\"num_nodes\":1,\"num_nodes\":1,"
       "\"features\":[1,2]}]}",
       "repeated field \"num_nodes\""},
      {"{\"graphs\":[{\"num_nodes\":1,\"features\":[1,2],"
       "\"features\":[1,2]}]}",
       "repeated field \"features\""},
      {"{\"graphs\":[{\"num_nodes\":2,\"features\":[1,2,3,4],"
       "\"edges\":[0,1],\"edges\":[1,0]}]}",
       "repeated field \"edges\""},
  };
  for (const auto& test_case : kCases) {
    auto graphs = ParseGraphsRequest(test_case.body, /*feat_dim=*/2, limits);
    ASSERT_FALSE(graphs.ok()) << test_case.body;
    EXPECT_EQ(graphs.status().code(), StatusCode::kInvalidArgument)
        << test_case.body;
    EXPECT_NE(graphs.status().message().find(test_case.needle),
              std::string::npos)
        << test_case.body << " -> " << graphs.status().message();
  }
}

TEST(GraphJsonTest, TruncatedBodiesNeverCrash) {
  // Fuzz-ish sweep: every prefix of a valid body must parse-fail
  // gracefully (InvalidArgument), never crash or succeed.
  const std::string body = kValidBody;
  for (size_t len = 0; len < body.size(); ++len) {
    auto graphs =
        ParseGraphsRequest(body.substr(0, len), 2, DefaultLimits());
    EXPECT_FALSE(graphs.ok()) << "prefix length " << len;
  }
}

TEST(GraphJsonTest, EnforcesGraphAndNodeLimits) {
  RequestLimits limits;
  limits.max_graphs = 1;
  auto too_many = ParseGraphsRequest(
      "{\"graphs\":[{\"num_nodes\":1,\"features\":[1,2]},"
      "{\"num_nodes\":1,\"features\":[3,4]}]}",
      2, limits);
  ASSERT_FALSE(too_many.ok());
  EXPECT_NE(too_many.status().message().find("limit"), std::string::npos);
  // Splitting the graphs over repeated "graphs" keys must not reset the
  // per-request limit.
  auto split = ParseGraphsRequest(
      "{\"graphs\":[{\"num_nodes\":1,\"features\":[1,2]}],"
      "\"graphs\":[{\"num_nodes\":1,\"features\":[3,4]}]}",
      2, limits);
  ASSERT_FALSE(split.ok());
  EXPECT_EQ(split.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(split.status().message().find("\"graphs\""), std::string::npos);

  limits = DefaultLimits();
  limits.max_total_nodes = 2;
  auto too_big = ParseGraphsRequest(
      "{\"graphs\":[{\"num_nodes\":3,\"features\":[1,2,3,4,5,6]}]}", 2,
      limits);
  ASSERT_FALSE(too_big.ok());
  EXPECT_NE(too_big.status().message().find("node limit"), std::string::npos);
}

TEST(GraphJsonTest, FormatRoundTripsFloat32Exactly) {
  // %.9g prints enough digits that parsing the response back recovers
  // the float bit pattern — the batching-determinism test depends on it.
  const std::vector<std::vector<float>> rows = {
      {0.1f, -1.5f, 3.14159274f},
      {1.0e-38f, std::numeric_limits<float>::max()}};
  const std::string body = FormatRowsResponse("embeddings", rows, 3);
  EXPECT_NE(body.find("\"embeddings\":[["), std::string::npos);
  EXPECT_NE(body.find("\"dim\":3"), std::string::npos);
  // Spot-check exact round trip on the first value.
  const size_t start = body.find("[[") + 2;
  const size_t end = body.find(',', start);
  const float parsed = std::strtof(body.substr(start, end - start).c_str(),
                                   nullptr);
  EXPECT_EQ(parsed, 0.1f);
}

TEST(GraphJsonTest, NonFiniteValuesFormatAsNull) {
  const std::vector<std::vector<float>> rows = {
      {std::numeric_limits<float>::quiet_NaN(),
       std::numeric_limits<float>::infinity()}};
  const std::string body = FormatRowsResponse("keep_probs", rows, -1);
  EXPECT_NE(body.find("[null,null]"), std::string::npos);
  EXPECT_EQ(body.find("\"dim\""), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace sgcl
