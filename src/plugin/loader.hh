/**
 * @file
 * The plugin loader: dlopen + symbol/ABI validation + deterministic
 * registration order.
 *
 * Plugins load in exactly the order their paths appear in
 * MITHRA_PLUGINS (colon-separated), and each path loads at most once
 * per process — repeated loadFromEnv() calls are idempotent, so the
 * registry's name order is a pure function of the environment value.
 * Every failure mode is a fatal() with an actionable message naming
 * the path: unresolvable file (dlerror text), missing entry-point
 * symbols (not a MITHRA plugin), ABI version mismatch (rebuild
 * against include/mithra_plugin.h), and a register hook that returns
 * nonzero.
 *
 * dlopen/dlsym live here and only here — the no-dlopen lint rule
 * confines runtime code loading to src/plugin so the rest of the
 * library stays statically analyzable.
 */

#pragma once

#include <string>
#include <vector>

namespace mithra::plugin
{

/** One successfully loaded plugin. */
struct LoadedPlugin
{
    std::string path;
    unsigned abiVersion = 0;
    std::vector<std::string> workloads;
    std::vector<std::string> backends;
};

/**
 * Load one plugin shared object (fatal on every failure mode above).
 * A path already loaded in this process is returned as-is without
 * re-running its registration.
 */
const LoadedPlugin &loadPlugin(const std::string &path);

/**
 * Load every path in MITHRA_PLUGINS (colon-separated, in order);
 * empty segments are ignored. Returns the plugins newly loaded by
 * this call (already-loaded paths are skipped silently).
 */
std::size_t loadFromEnv();

/** Everything loaded so far, in load order (copied snapshot). */
std::vector<LoadedPlugin> loadedPlugins();

/**
 * Install loadFromEnv() as the WorkloadRegistry's lazy discovery
 * hook: the first benchmark-name resolution anywhere in the process
 * pulls in MITHRA_PLUGINS. Call once at startup from binaries that
 * should honor the knob (mithra-serve loads eagerly instead, to fail
 * fast before binding the port).
 */
void enableAutoDiscovery();

} // namespace mithra::plugin
