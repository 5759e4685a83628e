#include "ocd/core/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"

namespace ocd::core {
namespace {

bool instances_equal(const Instance& a, const Instance& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  if (a.num_tokens() != b.num_tokens()) return false;
  if (a.graph().num_arcs() != b.graph().num_arcs()) return false;
  for (ArcId i = 0; i < a.graph().num_arcs(); ++i) {
    const Arc& x = a.graph().arc(i);
    const Arc& y = b.graph().arc(i);
    if (x.from != y.from || x.to != y.to || x.capacity != y.capacity)
      return false;
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    if (!(a.have(v) == b.have(v)) || !(a.want(v) == b.want(v))) return false;
  }
  if (a.files().size() != b.files().size()) return false;
  for (std::size_t i = 0; i < a.files().size(); ++i) {
    if (a.files()[i].first != b.files()[i].first ||
        a.files()[i].size != b.files()[i].size)
      return false;
  }
  return true;
}

TEST(InstanceIo, RoundTripFigure1) {
  const Instance original = figure1_instance();
  std::stringstream buffer;
  save_instance(original, buffer);
  const Instance loaded = load_instance(buffer);
  EXPECT_TRUE(instances_equal(original, loaded));
}

TEST(InstanceIo, RoundTripRandomScenario) {
  Rng rng(3);
  Digraph g = topology::random_overlay(25, rng);
  const Instance original = subdivided_files(std::move(g), 16, 4, 0);
  std::stringstream buffer;
  save_instance(original, buffer);
  const Instance loaded = load_instance(buffer);
  EXPECT_TRUE(instances_equal(original, loaded));
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "ocd-instance v1\n"
      "\n"
      "vertices 2 tokens 1\n"
      "# arcs\n"
      "arc 0 1 3\n"
      "have 0 0\n"
      "want 1 0\n"
      "end\n");
  const Instance inst = load_instance(in);
  EXPECT_EQ(inst.num_vertices(), 2);
  EXPECT_TRUE(inst.have(0).test(0));
  EXPECT_TRUE(inst.want(1).test(0));
}

TEST(InstanceIo, MalformedInputsRejectedWithLineNumbers) {
  const auto expect_error = [](const std::string& text,
                               const std::string& fragment) {
    std::stringstream in(text);
    try {
      load_instance(in);
      FAIL() << "expected parse error for: " << text;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
          << e.what();
    }
  };
  expect_error("bogus\n", "ocd-instance");
  expect_error("ocd-instance v1\nvertices x tokens 2\n", "expected");
  expect_error("ocd-instance v1\nvertices 2 tokens 1\narc 0 5 1\nend\n",
               "out of range");
  expect_error("ocd-instance v1\nvertices 2 tokens 1\narc 0 1 1\narc 0 1 2\nend\n",
               "duplicate");
  expect_error("ocd-instance v1\nvertices 2 tokens 1\nhave 0 7\nend\n",
               "token id out of range");
  expect_error("ocd-instance v1\nvertices 2 tokens 1\nfile 0 9\nend\n",
               "file range");
  expect_error("ocd-instance v1\nvertices 2 tokens 1\nfrob 1\nend\n",
               "unknown keyword");
  expect_error("ocd-instance v1\nvertices 2 tokens 1\narc 0 1 1\n",
               "missing 'end'");
  // Record lines are consumed whole: a malformed token id or a trailing
  // word is an error, never a silently truncated record.
  expect_error("ocd-instance v1\nvertices 3 tokens 4\nwant 1 0 1x 2 3\nend\n",
               "instance parse error at line 3");
  expect_error("ocd-instance v1\nvertices 2 tokens 1\narc 0 1 5 junk\nend\n",
               "instance parse error at line 3");
  expect_error("ocd-instance v1\nvertices 2 tokens 1 extra\nend\n",
               "instance parse error at line 2");
  // first + size overflows int32; the range check must not.
  expect_error(
      "ocd-instance v1\nvertices 2 tokens 4\nfile 2147483000 1000\nend\n",
      "instance parse error at line 3");
}

TEST(InstanceIo, FileRoundTrip) {
  const std::string path = "/tmp/ocd_io_test_instance.txt";
  const Instance original = figure1_instance();
  save_instance_file(original, path);
  const Instance loaded = load_instance_file(path);
  EXPECT_TRUE(instances_equal(original, loaded));
  std::remove(path.c_str());
  EXPECT_THROW(load_instance_file(path), Error);
}

TEST(ScheduleIo, FileRoundTripWithRealRun) {
  Rng rng(4);
  Digraph g = topology::random_overlay(15, rng);
  const std::int32_t arcs = g.num_arcs();
  const Instance inst = single_source_all_receivers(std::move(g), 8, 0);
  auto policy = heuristics::make_policy("global");
  const auto run = sim::run(inst, *policy);
  ASSERT_TRUE(run.success);

  const std::string path = "/tmp/ocd_io_test_schedule.bin";
  save_schedule_file(run.schedule, arcs, 8, path);
  const Schedule loaded = load_schedule_file(path);
  EXPECT_EQ(loaded.length(), run.schedule.length());
  EXPECT_EQ(loaded.bandwidth(), run.schedule.bandwidth());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ocd::core
