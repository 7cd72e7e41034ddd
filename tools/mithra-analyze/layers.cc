/**
 * @file
 * Pass 1 — the include graph and the layering DAG.
 *
 * layers.txt declares the architecture; this pass makes the compiler's
 * include graph match it. Edges are explicit (no transitivity): an
 * allowed A->B and B->C does not license A->C. File-level include
 * cycles are always an error, whatever the layers say.
 */

#include "analyze.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "lex.hh"

namespace mithra::analyze
{

namespace
{

/** Lexically normalize a slashed path: drop `.`, fold `a/..`. */
std::string
normalPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string piece;
    std::istringstream in(path);
    while (std::getline(in, piece, '/')) {
        if (piece.empty() || piece == ".")
            continue;
        if (piece == ".." && !parts.empty() && parts.back() != "..") {
            parts.pop_back();
            continue;
        }
        parts.push_back(piece);
    }
    std::string out;
    for (const std::string &part : parts) {
        if (!out.empty())
            out += '/';
        out += part;
    }
    return out;
}

std::string
dirName(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash);
}

/** Whitespace-split one layers.txt line. */
std::vector<std::string>
splitWords(const std::string &line)
{
    std::vector<std::string> words;
    std::istringstream in(line);
    std::string word;
    while (in >> word)
        words.push_back(word);
    return words;
}

} // namespace

std::size_t
LayerSpec::layerOf(const std::string &path) const
{
    std::size_t best = static_cast<std::size_t>(-1);
    std::size_t bestLength = 0;
    for (std::size_t i = 0; i < layers.size(); ++i) {
        for (const std::string &prefix : layers[i].prefixes) {
            if (path.rfind(prefix, 0) == 0
                && prefix.size() >= bestLength) {
                best = i;
                bestLength = prefix.size();
            }
        }
    }
    return best;
}

bool
LayerSpec::edgeAllowed(std::size_t from, std::size_t to) const
{
    if (from == to)
        return true;
    if (from >= layers.size() || to >= layers.size())
        return false;
    const std::string &target = layers[to].name;
    const auto &allowed = layers[from].allowed;
    return std::find(allowed.begin(), allowed.end(), target)
        != allowed.end();
}

LayerSpec
parseLayerSpec(const std::string &specPath, const std::string &text,
               std::vector<Diagnostic> &diagnostics)
{
    LayerSpec spec;
    std::map<std::string, std::size_t> byName;

    const auto fail = [&](std::size_t line, const std::string &message) {
        diagnostics.push_back({specPath, line, "layer-spec", message});
    };

    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::vector<std::string> words = splitWords(line);
        if (words.empty())
            continue;
        if (words[0] == "layer") {
            if (words.size() < 3) {
                fail(lineNo, "`layer' needs a name and at least one "
                             "path prefix");
                continue;
            }
            if (byName.count(words[1])) {
                fail(lineNo, "duplicate layer `" + words[1] + "'");
                continue;
            }
            byName[words[1]] = spec.layers.size();
            LayerSpec::Layer layer;
            layer.name = words[1];
            layer.prefixes.assign(words.begin() + 2, words.end());
            spec.layers.push_back(std::move(layer));
            continue;
        }
        if (words[0] == "allow") {
            if (words.size() < 4 || words[2] != "->") {
                fail(lineNo,
                     "`allow' syntax: allow <layer> -> <dep> [<dep>...]");
                continue;
            }
            const auto from = byName.find(words[1]);
            if (from == byName.end()) {
                fail(lineNo, "allow for undeclared layer `" + words[1]
                                 + "' (declare layers before edges)");
                continue;
            }
            for (std::size_t w = 3; w < words.size(); ++w) {
                if (!byName.count(words[w])) {
                    fail(lineNo, "allow names undeclared layer `"
                                     + words[w] + "'");
                    continue;
                }
                spec.layers[from->second].allowed.push_back(words[w]);
            }
            continue;
        }
        fail(lineNo, "unknown directive `" + words[0]
                         + "' (expected `layer' or `allow')");
    }

    // The allow edges themselves must form a DAG: a cyclic spec would
    // make "upward" meaningless.
    enum class Mark
    {
        White,
        Gray,
        Black
    };
    std::vector<Mark> marks(spec.layers.size(), Mark::White);
    std::vector<std::size_t> stack;
    const std::function<void(std::size_t)> visit = [&](std::size_t at) {
        marks[at] = Mark::Gray;
        stack.push_back(at);
        for (const std::string &dep : spec.layers[at].allowed) {
            const std::size_t next = byName.at(dep);
            if (marks[next] == Mark::Gray) {
                std::string chain;
                for (std::size_t s =
                         static_cast<std::size_t>(
                             std::find(stack.begin(), stack.end(), next)
                             - stack.begin());
                     s < stack.size(); ++s) {
                    chain += spec.layers[stack[s]].name + " -> ";
                }
                chain += dep;
                fail(1, "layer dependency cycle: " + chain);
            } else if (marks[next] == Mark::White) {
                visit(next);
            }
        }
        stack.pop_back();
        marks[at] = Mark::Black;
    };
    for (std::size_t i = 0; i < spec.layers.size(); ++i) {
        if (marks[i] == Mark::White)
            visit(i);
    }

    return spec;
}

std::vector<Diagnostic>
checkLayering(const LayerSpec &spec, const std::vector<SourceFile> &files)
{
    std::vector<Diagnostic> diagnostics;

    std::map<std::string, std::size_t> byPath;
    for (std::size_t i = 0; i < files.size(); ++i)
        byPath[files[i].path] = i;

    struct Edge
    {
        std::size_t target;
        std::size_t line;
    };
    std::vector<std::vector<Edge>> edges(files.size());

    for (std::size_t i = 0; i < files.size(); ++i) {
        const SourceFile &file = files[i];
        const lex::ScanResult scanned = lex::scan(file.source);

        const std::size_t fromLayer = spec.layerOf(file.path);
        if (fromLayer == static_cast<std::size_t>(-1)) {
            diagnostics.push_back(
                {file.shown(), 1, "layering",
                 "file matches no layer in layers.txt — every scanned "
                 "file must belong to exactly one layer"});
        }

        for (const lex::IncludeDirective &include : scanned.includes) {
            // Resolve like the build does: the including file's
            // directory, then the src/ include root, the repo root,
            // and the tool library root.
            const std::string dir = dirName(file.path);
            std::size_t target = static_cast<std::size_t>(-1);
            for (const std::string &base :
                 {dir, std::string("src"), std::string(),
                  std::string("tools/mithra-analyze")}) {
                const std::string candidate = normalPath(
                    base.empty() ? include.target
                                 : base + "/" + include.target);
                const auto found = byPath.find(candidate);
                if (found != byPath.end()) {
                    target = found->second;
                    break;
                }
            }
            if (target == static_cast<std::size_t>(-1))
                continue; // external header
            edges[i].push_back({target, include.line});

            const std::size_t toLayer =
                spec.layerOf(files[target].path);
            if (fromLayer == static_cast<std::size_t>(-1)
                || toLayer == static_cast<std::size_t>(-1))
                continue;
            if (spec.edgeAllowed(fromLayer, toLayer))
                continue;
            if (lex::suppressed(scanned.allows, "mithra-analyze",
                                "layering", include.line))
                continue;
            diagnostics.push_back(
                {file.shown(), include.line, "layering",
                 "include chain " + file.path + " (layer "
                     + spec.layers[fromLayer].name + ") -> "
                     + files[target].path + " (layer "
                     + spec.layers[toLayer].name
                     + ") is not an allowed edge in layers.txt"});
        }
    }

    // File-level cycle detection; each cycle reported once, with the
    // full offending include chain printed.
    enum class Mark
    {
        White,
        Gray,
        Black
    };
    std::vector<Mark> marks(files.size(), Mark::White);
    std::vector<std::size_t> stack;
    std::set<std::string> seenCycles;
    const std::function<void(std::size_t)> visit = [&](std::size_t at) {
        marks[at] = Mark::Gray;
        stack.push_back(at);
        for (const Edge &edge : edges[at]) {
            if (marks[edge.target] == Mark::Gray) {
                const auto begin = std::find(stack.begin(), stack.end(),
                                             edge.target);
                std::string chain;
                for (auto it = begin; it != stack.end(); ++it)
                    chain += files[*it].path + " -> ";
                chain += files[edge.target].path;
                if (seenCycles.insert(chain).second) {
                    diagnostics.push_back(
                        {files[at].shown(), edge.line, "include-cycle",
                         "include cycle: " + chain});
                }
            } else if (marks[edge.target] == Mark::White) {
                visit(edge.target);
            }
        }
        stack.pop_back();
        marks[at] = Mark::Black;
    };
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (marks[i] == Mark::White)
            visit(i);
    }

    return diagnostics;
}

} // namespace mithra::analyze
