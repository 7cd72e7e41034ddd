/**
 * @file
 * mithra-analyze driver: `mithra-analyze [--env-table] [<repo-root>]`
 * runs the lint rules and the four semantic passes (layering DAG,
 * determinism taint, parallel-capture races, env-var registry) over
 * the tree and exits nonzero on any finding. `--env-table` prints the
 * README environment table regenerated from src/common/env_registry.hh
 * and exits. See lint.hh for the rule catalog and analyze.hh for the
 * pass catalog.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analyze.hh"

int
main(int argc, char **argv)
{
    using namespace mithra::analyze;

    bool envTable = false;
    std::string root = ".";
    for (int arg = 1; arg < argc; ++arg) {
        const std::string word = argv[arg];
        if (word == "--env-table") {
            envTable = true;
        } else if (!word.empty() && word[0] == '-') {
            std::fprintf(stderr,
                         "usage: mithra-analyze [--env-table] "
                         "[<repo-root>]\n"
                         "Lint rules over "
                         "<root>/{src,bench,tests,include} and "
                         "semantic analysis over "
                         "<root>/{src,bench,tools,tests}; exits 1 on "
                         "any finding.\n");
            return 2;
        } else {
            root = word;
        }
    }

    if (envTable) {
        const std::string path = root + "/src/common/env_registry.hh";
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::fprintf(stderr,
                         "mithra-analyze: cannot read %s\n",
                         path.c_str());
            return 2;
        }
        std::ostringstream buffer;
        buffer << in.rdbuf();
        const EnvRegistry registry = parseEnvRegistry(buffer.str());
        if (registry.entries.empty()) {
            std::fprintf(stderr,
                         "mithra-analyze: no registry entries in %s\n",
                         path.c_str());
            return 1;
        }
        std::fputs(renderEnvTable(registry).c_str(), stdout);
        return 0;
    }

    const TreeReport report = analyzeTree(root);
    for (const Diagnostic &d : report.diagnostics)
        std::fprintf(stderr, "%s\n", formatDiagnostic(d).c_str());

    if (!report.diagnostics.empty()) {
        std::fprintf(stderr,
                     "mithra-analyze: %zu finding(s) in %zu file(s) "
                     "scanned\n",
                     report.diagnostics.size(), report.fileCount);
        return 1;
    }
    std::fprintf(stderr, "mithra-analyze: %zu file(s) clean\n",
                 report.fileCount);
    return 0;
}
