/**
 * @file
 * mithra-analyze driver: load the tree, run the lint rules and all four
 * passes, sort the diagnostics.
 */

#include "analyze.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace mithra::analyze
{

namespace
{

std::string
readFile(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ok = false;
        return {};
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ok = true;
    return buffer.str();
}

/** Strip `<root>/` so pass logic sees repo-relative slashed paths
 *  whatever root the tool was pointed at. */
std::string
relativeTo(const std::string &root, const std::string &path)
{
    const std::string prefix = root == "." ? "./" : root + "/";
    if (path.rfind(prefix, 0) == 0)
        return path.substr(prefix.size());
    return path;
}

} // namespace

TreeReport
analyzeTree(const std::string &root)
{
    TreeReport report;
    std::vector<Diagnostic> &diagnostics = report.diagnostics;

    // The lint rules cover src, bench, tests and the C plugin ABI in
    // include; the semantic passes cover src, bench, tools and tests
    // (include/ is plain C, outside the layer DAG).
    std::vector<SourceFile> files;
    for (const std::string sub :
         {"src", "bench", "tools", "tests", "include"}) {
        const std::string where = root + "/" + sub;
        for (const std::string &path : lint::collectFiles(where)) {
            ++report.fileCount;
            bool ok = false;
            std::string source = readFile(path, ok);
            if (!ok) {
                diagnostics.push_back(
                    {path, 1, "io", "cannot read file"});
                continue;
            }
            const std::string relative = relativeTo(root, path);
            if (sub != "tools") {
                for (Diagnostic d : lint::lintSource(relative, source)) {
                    d.file = path;
                    diagnostics.push_back(std::move(d));
                }
            }
            if (sub != "include")
                files.push_back({relative, std::move(source), path});
        }
    }

    // Pass 1 — layering. A missing or broken spec is itself an error:
    // the gate must never silently pass because the DAG vanished.
    const std::string specPath = root + "/tools/mithra-analyze/layers.txt";
    bool specOk = false;
    const std::string specText = readFile(specPath, specOk);
    if (!specOk) {
        diagnostics.push_back({specPath, 1, "layer-spec",
                               "cannot read layer specification"});
    } else {
        const LayerSpec spec =
            parseLayerSpec(specPath, specText, diagnostics);
        const std::vector<Diagnostic> layering =
            checkLayering(spec, files);
        diagnostics.insert(diagnostics.end(), layering.begin(),
                           layering.end());
    }

    // Pass 4 needs the registry and the README up front.
    EnvRegistry registry;
    for (const SourceFile &file : files) {
        if (file.path == "src/common/env_registry.hh") {
            registry = parseEnvRegistry(file.source);
            break;
        }
    }
    if (registry.entries.empty()) {
        diagnostics.push_back(
            {root + "/src/common/env_registry.hh", 1, "env-registry",
             "cannot parse any registry entries — the env-var "
             "registry must declare every MITHRA_* variable"});
    }
    const std::string readmePath = root + "/README.md";
    bool readmeOk = false;
    const std::string readmeText = readFile(readmePath, readmeOk);
    if (!readmeOk) {
        diagnostics.push_back({readmePath, 1, "env-registry",
                               "cannot read README.md for the "
                               "environment-table check"});
    } else if (!registry.entries.empty()) {
        const std::vector<Diagnostic> readme =
            checkReadme(registry, readmePath, readmeText);
        diagnostics.insert(diagnostics.end(), readme.begin(),
                           readme.end());
    }

    // Per-file passes 2-4.
    for (const SourceFile &file : files) {
        for (const Diagnostic &d : checkTaint(file))
            diagnostics.push_back(d);
        for (const Diagnostic &d : checkCaptures(file))
            diagnostics.push_back(d);
        for (const Diagnostic &d : checkEnvUse(registry, file))
            diagnostics.push_back(d);
    }

    std::sort(diagnostics.begin(), diagnostics.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return report;
}

} // namespace mithra::analyze
