/**
 * @file
 * The end-to-end benchmark program (normally started by run.py):
 *
 *   e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *       [--expected FILE] [--write-expected FILE] [--spans FILE]
 *
 * Prints notes as "# ..." lines and, as its last line, one JSON object
 * with the keys correct, attempted, failed and metrics. --expected
 * holds the outputs pinned at the default seed ("label values" lines);
 * it is checked only when the run uses that seed. --write-expected
 * records the first pass's outputs in that format.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

std::map<std::string, std::string>
readExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::map<std::string, std::string> expected;
    std::string line;
    while (std::getline(in, line)) {
        const auto space = line.find(' ');
        if (line.empty() || line[0] == '#' || space == std::string::npos)
            continue;
        expected[line.substr(0, space)] = line.substr(space + 1);
    }
    return expected;
}

bool
writeExpected(const std::string &path, const e2e::Outcome &outcome,
              const e2e::RunConfig &config)
{
    std::ofstream out(path);
    out << "# " << config.workload << " outputs at seed " << config.seed
        << ": cell label, then its pinned values\n";
    for (const auto &[label, values] : outcome.pinned)
        out << label << ' ' << values << '\n';
    return static_cast<bool>(out);
}

void
printResult(const e2e::Outcome &outcome)
{
    for (const auto &note : outcome.notes)
        std::printf("# %s\n", note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                outcome.correct ? "true" : "false", outcome.attempted,
                outcome.failed);
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const auto &metric = outcome.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    e2e::RunConfig config;
    std::string expected_path, write_path;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc)
                throw std::invalid_argument(flag + " needs a value");
            const std::string value = argv[++i];
            if (flag == "--workload")
                config.workload = value;
            else if (flag == "--seed")
                config.seed = std::stoull(value);
            else if (flag == "--seconds")
                config.seconds = std::stod(value);
            else if (flag == "--trace")
                config.trace = value == "1";
            else if (flag == "--expected")
                expected_path = value;
            else if (flag == "--write-expected")
                write_path = value;
            else if (flag == "--spans")
                config.spansPath = value;
            else
                throw std::invalid_argument("unknown flag " + flag);
        }
        if (!expected_path.empty() && config.seed == e2e::defaultSeed)
            config.expected = readExpected(expected_path);

        const e2e::Outcome outcome = e2e::runWorkload(config);
        if (!write_path.empty() && !writeExpected(write_path, outcome, config))
            throw std::runtime_error("cannot write " + write_path);
        printResult(outcome);
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e: %s\n", e.what());
        return 2;
    }
}
