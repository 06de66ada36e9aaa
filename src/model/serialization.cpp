#include "model/serialization.hpp"

#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/text_reader.hpp"

namespace streamflow {

void save_instance(std::ostream& os, const Mapping& mapping) {
  const Application& app = mapping.application();
  const Platform& platform = mapping.platform();
  os.precision(17);
  os << "streamflow-instance v1\n";
  os << "stages " << app.num_stages() << "\n";
  os << "works";
  for (double w : app.stage_works()) os << " " << w;
  os << "\nfiles";
  for (double d : app.file_sizes()) os << " " << d;
  os << "\nprocessors " << platform.num_processors() << "\n";
  os << "speeds";
  for (std::size_t p = 0; p < platform.num_processors(); ++p)
    os << " " << platform.speed(p);
  os << "\n";
  for (std::size_t p = 0; p < platform.num_processors(); ++p) {
    for (std::size_t q = p + 1; q < platform.num_processors(); ++q) {
      if (platform.bandwidth(p, q) > 0.0)
        os << "link " << p << " " << q << " " << platform.bandwidth(p, q)
           << "\n";
    }
  }
  for (std::size_t i = 0; i < app.num_stages(); ++i) {
    os << "team " << i;
    for (std::size_t p : mapping.team(i)) os << " " << p;
    os << "\n";
  }
}

Mapping instance_from_string(std::string_view text) {
  TextReader reader(text, "instance");
  if (!reader.next_line() || !reader.line().starts_with("streamflow-instance"))
    reader.fail("missing 'streamflow-instance v1' header");

  std::optional<std::size_t> num_stages, num_processors;
  std::vector<double> works, files, speeds;
  std::vector<std::tuple<std::size_t, std::size_t, double>> links;
  std::map<std::size_t, std::vector<std::size_t>> teams;

  // Every line is read to its end: a token left over ("works 1 2 x") is a
  // corrupt file, not noise to drop (which would truncate the list).
  const auto read_list = [&reader](std::vector<double>& out,
                                   const char* what) {
    while (!reader.at_line_end()) out.push_back(reader.number<double>(what));
  };
  const auto read_count = [&reader](const char* what) {
    const auto n = reader.number<std::size_t>(what);
    reader.expect_line_end(what);
    if (n == 0) reader.fail(std::string("bad ") + what + " (must be positive)");
    return n;
  };

  while (reader.next_line()) {
    const std::string_view keyword = reader.token();
    if (keyword == "stages") {
      num_stages = read_count("stage count");
    } else if (keyword == "works") {
      read_list(works, "work");
    } else if (keyword == "files") {
      read_list(files, "file size");
    } else if (keyword == "processors") {
      num_processors = read_count("processor count");
    } else if (keyword == "speeds") {
      read_list(speeds, "speed");
    } else if (keyword == "link") {
      const auto p = reader.number<std::size_t>("link processor");
      const auto q = reader.number<std::size_t>("link processor");
      links.emplace_back(p, q, reader.number<double>("bandwidth"));
      reader.expect_line_end("link");
    } else if (keyword == "team") {
      const auto stage = reader.number<std::size_t>("team stage");
      std::vector<std::size_t> members;
      while (!reader.at_line_end())
        members.push_back(reader.number<std::size_t>("team processor"));
      if (members.empty()) reader.fail("empty team");
      if (!teams.emplace(stage, std::move(members)).second)
        reader.fail("duplicate team for stage " + std::to_string(stage));
    } else {
      reader.fail("unknown keyword '" + std::string(keyword) + "'");
    }
  }

  if (!num_stages) reader.fail("missing 'stages'");
  if (!num_processors) reader.fail("missing 'processors'");
  if (works.size() != *num_stages)
    reader.fail("expected " + std::to_string(*num_stages) + " works");
  if (files.size() + 1 != *num_stages)
    reader.fail("expected " + std::to_string(*num_stages - 1) + " files");
  if (speeds.size() != *num_processors)
    reader.fail("expected " + std::to_string(*num_processors) + " speeds");
  if (teams.size() != *num_stages)
    reader.fail("expected one team per stage");

  try {
    Application app(works, files);
    Platform platform(speeds);
    for (const auto& [p, q, b] : links) platform.set_bandwidth(p, q, b);
    std::vector<std::vector<std::size_t>> team_list(*num_stages);
    for (auto& [stage, members] : teams) {
      if (stage >= *num_stages)
        reader.fail("team stage index out of range");
      team_list[stage] = std::move(members);
    }
    // One shared allocation: everything derived from the loaded mapping
    // (search candidates, re-teamed variants) shares this instance.
    return Mapping(make_instance(std::move(app), std::move(platform)),
                   std::move(team_list));
  } catch (const InvalidArgument& error) {
    throw InvalidArgument(std::string("instance semantic error: ") +
                          error.what());
  }
}

std::string instance_to_string(const Mapping& mapping) {
  std::ostringstream os;
  save_instance(os, mapping);
  return os.str();
}

}  // namespace streamflow
