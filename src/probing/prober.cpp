#include "probing/prober.hpp"

#include <stdexcept>

namespace llm4vv::probing {

ProbedSuite probe_suite(const corpus::Suite& base,
                        const ProbingConfig& config) {
  std::size_t total = 0;
  for (const auto count : config.issue_counts) total += count;
  if (base.cases.size() < total) {
    throw std::invalid_argument(
        "probe_suite: base suite has " + std::to_string(base.cases.size()) +
        " files but the probing config needs " + std::to_string(total));
  }

  support::Rng rng(config.seed);

  // Shuffle the draw order ("split the test files in half randomly").
  std::vector<std::size_t> order(base.cases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);

  ProbedSuite out;
  out.flavor = base.flavor;
  out.files.reserve(total);

  // Remaining need per issue; files are assigned round-robin through the
  // issue list so template families spread evenly across issues.
  std::array<std::size_t, 6> need = config.issue_counts;
  std::size_t next_file = 0;

  const auto draw_file = [&]() -> const corpus::TestCase& {
    if (next_file >= order.size()) {
      throw std::runtime_error(
          "probe_suite: ran out of files (too many inapplicable mutations)");
    }
    return base.cases[order[next_file++]];
  };

  for (int issue_id = 0; issue_id < 6; ++issue_id) {
    const IssueType issue = static_cast<IssueType>(issue_id);
    while (need[static_cast<std::size_t>(issue_id)] > 0) {
      const corpus::TestCase& source = draw_file();
      support::Rng file_rng = rng.fork();
      const auto mutated =
          apply_mutation(source.file.content, source.file.language, issue,
                         config.mutation, file_rng);
      if (!mutated.has_value()) continue;  // inapplicable: draw another file
      ProbedFile probed;
      probed.file = source.file;
      probed.file.content = *mutated;
      probed.issue = issue;
      probed.template_name =
          issue == IssueType::kReplacedWithPlainCode ? "" :
          source.template_name;
      if (issue == IssueType::kReplacedWithPlainCode) {
        // The replacement is plain C; keep the original name (the paper
        // replaced file *contents*, not names) but correct the language.
        probed.file.language = frontend::Language::kC;
      }
      out.files.push_back(std::move(probed));
      --need[static_cast<std::size_t>(issue_id)];
    }
  }

  // Interleave issues so batches seen by the pipeline are mixed, the way a
  // shuffled suite directory would be.
  rng.shuffle(out.files);
  return out;
}

ProbingConfig part_one_acc_config() {
  ProbingConfig config;
  config.issue_counts = {203, 125, 108, 117, 114, 668};
  config.mutation.issue4_function_tail_share = 0.15;
  config.seed = 0xACC1;
  return config;
}

ProbingConfig part_one_omp_config() {
  ProbingConfig config;
  config.issue_counts = {59, 39, 33, 51, 33, 216};
  config.mutation.issue4_function_tail_share = 0.80;
  config.seed = 0x0A3B1;
  return config;
}

ProbingConfig part_two_acc_config() {
  ProbingConfig config;
  config.issue_counts = {272, 146, 151, 146, 176, 891};
  config.mutation.issue4_function_tail_share = 0.15;
  config.seed = 0xACC2;
  return config;
}

ProbingConfig part_two_omp_config() {
  ProbingConfig config;
  config.issue_counts = {49, 28, 26, 20, 25, 148};
  config.mutation.issue4_function_tail_share = 0.80;
  config.seed = 0x0A3B2;
  return config;
}

}  // namespace llm4vv::probing
