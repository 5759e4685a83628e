#include "ocd/core/io.hpp"

#include <fstream>
#include <sstream>

#include "ocd/core/encoding.hpp"

namespace ocd::core {

namespace {

[[noreturn]] void parse_error(std::int64_t line, const std::string& message) {
  std::ostringstream out;
  out << "instance parse error at line " << line << ": " << message;
  throw Error(out.str());
}

/// Rejects whatever a record line's fields left unread, so a malformed
/// number ("1x", "5.0") or a trailing word fails instead of being
/// silently cut off.
void require_consumed(std::istringstream& fields, std::int64_t line) {
  fields >> std::ws;
  if (!fields.eof()) parse_error(line, "unexpected trailing input");
}

}  // namespace

void save_instance(const Instance& inst, std::ostream& out) {
  out << "ocd-instance v1\n";
  out << "vertices " << inst.num_vertices() << " tokens " << inst.num_tokens()
      << '\n';
  for (const Arc& arc : inst.graph().arcs())
    out << "arc " << arc.from << ' ' << arc.to << ' ' << arc.capacity << '\n';
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    if (inst.have(v).empty()) continue;
    out << "have " << v;
    inst.have(v).for_each([&](TokenId t) { out << ' ' << t; });
    out << '\n';
  }
  for (VertexId v = 0; v < inst.num_vertices(); ++v) {
    if (inst.want(v).empty()) continue;
    out << "want " << v;
    inst.want(v).for_each([&](TokenId t) { out << ' ' << t; });
    out << '\n';
  }
  for (const File& file : inst.files())
    out << "file " << file.first << ' ' << file.size << '\n';
  out << "end\n";
}

void save_instance_file(const Instance& inst, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for writing: " + path);
  save_instance(inst, out);
  if (!out) throw Error("write failed: " + path);
}

Instance load_instance(std::istream& in) {
  std::string line;
  std::int64_t line_no = 0;

  auto next_line = [&](bool required) -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      const auto start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos) continue;
      if (line[start] == '#') continue;
      return true;
    }
    if (required) parse_error(line_no, "unexpected end of input");
    return false;
  };

  if (!next_line(true) || line.rfind("ocd-instance", 0) != 0)
    parse_error(line_no, "missing 'ocd-instance' header");

  next_line(true);
  std::int32_t n = -1;
  std::int32_t m = -1;
  {
    std::istringstream fields(line);
    std::string kw_vertices;
    std::string kw_tokens;
    if (!(fields >> kw_vertices >> n >> kw_tokens >> m) ||
        kw_vertices != "vertices" || kw_tokens != "tokens" || n < 0 || m < 0)
      parse_error(line_no, "expected 'vertices <n> tokens <m>'");
    require_consumed(fields, line_no);
  }

  Digraph graph(n);
  struct TokenLine {
    bool is_have;
    VertexId vertex;
    std::vector<TokenId> tokens;
  };
  std::vector<TokenLine> token_lines;
  std::vector<File> files;

  bool saw_end = false;
  while (next_line(false)) {
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "end") {
      require_consumed(fields, line_no);
      saw_end = true;
      break;
    }
    if (keyword == "arc") {
      VertexId from = -1;
      VertexId to = -1;
      std::int32_t capacity = 0;
      if (!(fields >> from >> to >> capacity))
        parse_error(line_no, "expected 'arc <from> <to> <capacity>'");
      require_consumed(fields, line_no);
      if (from < 0 || from >= n || to < 0 || to >= n || from == to ||
          capacity < 1)
        parse_error(line_no, "arc endpoints/capacity out of range");
      if (graph.has_arc(from, to)) parse_error(line_no, "duplicate arc");
      graph.add_arc(from, to, capacity);
    } else if (keyword == "have" || keyword == "want") {
      TokenLine entry;
      entry.is_have = keyword == "have";
      if (!(fields >> entry.vertex))
        parse_error(line_no, "expected vertex id");
      if (entry.vertex < 0 || entry.vertex >= n)
        parse_error(line_no, "vertex id out of range");
      TokenId token = -1;
      while (fields >> token) {
        if (token < 0 || token >= m)
          parse_error(line_no, "token id out of range");
        entry.tokens.push_back(token);
      }
      if (!fields.eof()) parse_error(line_no, "malformed token id");
      token_lines.push_back(std::move(entry));
    } else if (keyword == "file") {
      File file;
      if (!(fields >> file.first >> file.size))
        parse_error(line_no, "expected 'file <first> <size>'");
      require_consumed(fields, line_no);
      // size > m - first, not first + size > m: the sum overflows int32.
      if (file.first < 0 || file.size < 1 || file.size > m - file.first)
        parse_error(line_no, "file range out of bounds");
      files.push_back(file);
    } else {
      parse_error(line_no, "unknown keyword '" + keyword + "'");
    }
  }
  if (!saw_end) parse_error(line_no, "missing 'end'");

  Instance inst(std::move(graph), m);
  for (const TokenLine& entry : token_lines) {
    for (TokenId t : entry.tokens) {
      if (entry.is_have) {
        inst.add_have(entry.vertex, t);
      } else {
        inst.add_want(entry.vertex, t);
      }
    }
  }
  for (const File& file : files) inst.add_file(file.first, file.size);
  inst.validate();
  return inst;
}

Instance load_instance_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open for reading: " + path);
  return load_instance(in);
}

void save_schedule_file(const Schedule& schedule, std::int32_t num_arcs,
                        std::int32_t num_tokens, const std::string& path) {
  const auto bytes = encode_schedule(schedule, num_arcs, num_tokens);
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw Error("write failed: " + path);
}

Schedule load_schedule_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open for reading: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return decode_schedule(bytes);
}

}  // namespace ocd::core
