// Seeded mutation fuzzing of the three text parsers: the DAG text format
// (`dag::read_text`) and STG (`read_stg`) over the inputs in data/, and
// the topology text format (`net::read_text`) over the written form of a
// fabric with duplex and half-duplex links and a bus.
//
// Each mutant stacks a few token or byte edits: a number swapped for
// digits, NaN, inf, a negative, 1e308 or a 32/64-bit edge value; a line
// duplicated or dropped; an edge or link reversed (which may close a
// cycle); a byte replaced, inserted or deleted; the text cut short. The
// parser must either build, or throw std::invalid_argument; any other
// exception (an internal assertion included) fails the test. A built
// graph is acyclic; a built topology has no more links than the text
// has `link` lines. Parsing and building only: scheduling extreme
// magnitudes is a separate contract.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dag/serialization.hpp"
#include "net/serialization.hpp"
#include "util/rng.hpp"

#ifndef EDGESCHED_DATA_DIR
#error "EDGESCHED_DATA_DIR must point at data/"
#endif

namespace edgesched::dag {
namespace {

constexpr int kMutantsPerInput = 6000;

std::string read_file(const std::string& name) {
  std::ifstream in(std::string(EDGESCHED_DATA_DIR) + "/" + name);
  EXPECT_TRUE(in) << "cannot read data/" << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

/// Replaces one whitespace-separated token of a random line.
void mutate_token(std::vector<std::string>& lines, Rng& rng) {
  static const char* const kValues[] = {
      "0",     "1",      "-1",   "7",    "nan",         "NaN",
      "inf",   "-inf",   "1e308", "-1e308", "1e309",    "1e-320",
      "-0",    "0.5",    "4294967295", "4294967296",
      "18446744073709551615", "99999999999999999999", "", "x"};
  std::string& line = lines[rng.index(lines.size())];
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string token; in >> token;) {
    tokens.push_back(token);
  }
  if (tokens.empty()) {
    return;
  }
  std::string& token = tokens[rng.index(tokens.size())];
  if (rng.bernoulli(0.3)) {
    token = std::to_string(rng.uniform_int(0, 12));  // a small in-range id
  } else {
    token = kValues[rng.index(std::size(kValues))];
  }
  line.clear();
  for (const std::string& t : tokens) {
    line += t + ' ';
  }
}

/// Swaps the first two numbers after the keyword of an `edge` or `link`
/// line, or
/// appends a later task as a predecessor of an STG line: either may
/// close a cycle.
void close_cycle(std::vector<std::string>& lines, Rng& rng, bool stg) {
  std::string& line = lines[rng.index(lines.size())];
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) {
    tokens.push_back(token);
  }
  if (!stg && tokens.size() >= 3 &&
      (tokens[0] == "edge" || tokens[0] == "link")) {
    std::swap(tokens[1], tokens[2]);
  } else if (stg && tokens.size() >= 3) {
    tokens.push_back(std::to_string(rng.uniform_int(0, 9)));
    tokens[2] = std::to_string(tokens.size() - 3);  // the list's length
  } else {
    return;
  }
  line.clear();
  for (const std::string& t : tokens) {
    line += t + ' ';
  }
}

std::string mutate(const std::string& seed_text, Rng& rng, bool stg) {
  std::vector<std::string> lines = split_lines(seed_text);
  const int edits = static_cast<int>(rng.uniform_int(1, 3));
  std::string text;
  for (int k = 0; k < edits; ++k) {
    if (lines.empty()) {
      break;
    }
    switch (rng.uniform_int(0, 4)) {
      case 0:
        mutate_token(lines, rng);
        break;
      case 1: {
        const std::size_t i = rng.index(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i),
                     lines[i]);
        break;
      }
      case 2:
        lines.erase(lines.begin() +
                    static_cast<std::ptrdiff_t>(rng.index(lines.size())));
        break;
      case 3:
        close_cycle(lines, rng, stg);
        break;
      default:
        break;  // a byte edit below
    }
  }
  text = join_lines(lines);
  if (!text.empty() && rng.bernoulli(0.3)) {
    static const char kBytes[] = "0123456789-+.eE \n\t#xn\0\xff";
    const std::size_t at = rng.index(text.size());
    const char byte = kBytes[rng.index(sizeof(kBytes) - 1)];
    switch (rng.uniform_int(0, 3)) {
      case 0:
        text[at] = byte;
        break;
      case 1:
        text.insert(at, 1, byte);
        break;
      case 2:
        text.erase(at, 1);
        break;
      default:
        text.resize(at);  // cut short
        break;
    }
  }
  return text;
}

/// Parses every mutant; counts the ones that built. `parse` builds from
/// the text and checks the result, returning what a failed check should
/// print (empty when it holds).
int fuzz(const std::string& seed_text, bool stg, std::uint64_t seed,
         const std::function<std::string(const std::string&)>& parse) {
  Rng rng(seed);
  int built = 0;
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string text = mutate(seed_text, rng, stg);
    try {
      const std::string violation = parse(text);
      EXPECT_EQ(violation, "") << "mutant " << i << ":\n" << text;
      ++built;
    } catch (const std::invalid_argument&) {
      // A typed rejection is the other allowed outcome.
    } catch (const std::exception& error) {
      ADD_FAILURE() << "mutant " << i << " raised " << error.what()
                    << ":\n" << text;
    }
  }
  return built;
}

std::string check_acyclic(const TaskGraph& graph) {
  return graph.topological_order().size() == graph.num_tasks()
             ? ""
             : "built graph has a cycle";
}

TEST(ParserMutation, TextParserBuildsOrRejects) {
  const std::string seed_text = read_file("mapreduce.txt");
  std::istringstream pristine(seed_text);
  EXPECT_EQ(read_text(pristine).num_tasks(), 8u);
  const int built = fuzz(seed_text, /*stg=*/false, 1,
                         [](const std::string& text) {
                           std::istringstream in(text);
                           return check_acyclic(read_text(in));
                         });
  // Both outcomes occur, so the mutants are neither all fatal nor inert.
  EXPECT_GT(built, 0);
  EXPECT_LT(built, kMutantsPerInput);
}

TEST(ParserMutation, StgParserBuildsOrRejects) {
  const std::string seed_text = read_file("pipeline.stg");
  std::istringstream pristine(seed_text);
  EXPECT_EQ(read_stg(pristine).num_tasks(), 8u);
  const int built = fuzz(seed_text, /*stg=*/true, 2,
                         [](const std::string& text) {
                           std::istringstream in(text);
                           return check_acyclic(read_stg(in));
                         });
  EXPECT_GT(built, 0);
  EXPECT_LT(built, kMutantsPerInput);
}

TEST(ParserMutation, TopologyParserBuildsOrRejects) {
  net::Topology fabric("mixed");
  const net::NodeId a = fabric.add_processor(2.0);
  const net::NodeId b = fabric.add_processor(1.0);
  const net::NodeId c = fabric.add_processor(3.0);
  const net::NodeId d = fabric.add_processor(1.0);
  const net::NodeId hub = fabric.add_switch();
  fabric.add_duplex_link(a, hub, 4.0);
  fabric.add_duplex_link(b, hub, 2.0);
  fabric.add_bus({hub, c}, 1.5);  // a half-duplex cable
  fabric.add_bus({b, c, d}, 1.0);
  std::ostringstream written;
  net::write_text(written, fabric);
  const std::string seed_text = written.str();
  std::istringstream pristine(seed_text);
  EXPECT_EQ(net::read_text(pristine).fingerprint(), fabric.fingerprint());

  const int built = fuzz(seed_text, /*stg=*/false, 3,
                         [](const std::string& text) {
    std::istringstream in(text);
    const net::Topology topology = net::read_text(in);
    std::size_t link_lines = 0;
    for (const std::string& line : split_lines(text)) {
      std::istringstream fields(line);
      std::string keyword;
      link_lines += (fields >> keyword) && keyword == "link" ? 1 : 0;
    }
    return topology.num_links() <= link_lines
               ? std::string()
               : std::to_string(topology.num_links()) + " links from " +
                     std::to_string(link_lines) + " link lines";
  });
  EXPECT_GT(built, 0);
  EXPECT_LT(built, kMutantsPerInput);
}

}  // namespace
}  // namespace edgesched::dag
