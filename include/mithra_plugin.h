/*
 * mithra_plugin.h — the MITHRA plugin ABI (version 1).
 *
 * A plugin is a shared object that contributes workloads (an
 * AxBench-class benchmark: precise function + deterministic dataset
 * generator + quality metric) and/or accelerator backends (an
 * alternative to the built-in NPU) to a MITHRA host process. The host
 * loads plugins named by the MITHRA_PLUGINS environment variable
 * (colon-separated paths, loaded in order) with dlopen and resolves
 * two exported symbols:
 *
 *     uint32_t mithra_plugin_abi_version(void);
 *     int      mithra_plugin_register(const mithra_host_v1 *host);
 *
 * The version function must return MITHRA_PLUGIN_ABI_VERSION as seen
 * at plugin build time; a mismatch is rejected before any other
 * plugin code runs. The register function receives the host's
 * function table and calls host->register_workload /
 * host->register_backend once per contributed item. It returns 0 on
 * success; any other value aborts the load.
 *
 * This header is deliberately C89-clean: it is the one file shared
 * verbatim between the C++ host and plugins written in plain C, and
 * it must keep compiling with `gcc -std=c89 -fsyntax-only` (enforced
 * by CI). Everything here is plain-old-data; ownership never crosses
 * the boundary except through the create/destroy pairs below.
 *
 * Stability policy (DESIGN.md section 16): within ABI v1, existing
 * struct fields are never reordered, removed, or retyped, and the
 * semantics of the lifecycle hooks never change. New capability is
 * added either by appending fields (guarded by struct_size: a plugin
 * built against an older header reports a smaller struct_size and the
 * host treats the missing tail as zeros/NULLs) or by introducing a
 * mithra_*_v2 table with a new entry point. Changing any existing
 * field or hook contract bumps MITHRA_PLUGIN_ABI_VERSION, and the
 * loader rejects the mismatch with an actionable error.
 *
 * Determinism contract (docs/PLUGINS.md): every hook must be a pure
 * function of its arguments. No wall clock, no rand()/random_device,
 * no reads of ambient process state, no allocation-address-dependent
 * behaviour. Two processes loading the same plugin must produce
 * bitwise-identical datasets, traces, and quality scores at any
 * MITHRA_THREADS setting.
 */

#ifndef MITHRA_PLUGIN_H
#define MITHRA_PLUGIN_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Bumped only on breaking changes to the v1 tables (see the
 * stability policy above). */
#define MITHRA_PLUGIN_ABI_VERSION 1u

/* ------------------------------------------------------------------ */
/* Quality metrics (mithra_workload_v1.metric).                        */
/* ------------------------------------------------------------------ */

/* Mean per-element relative error of the final output, percent. */
#define MITHRA_METRIC_AVG_RELATIVE_ERROR 0
/* Fraction of binary decisions (element > 0.5) that flipped, percent. */
#define MITHRA_METRIC_MISS_RATE 1
/* RMS element difference relative to the 8-bit range, percent. */
#define MITHRA_METRIC_IMAGE_DIFF 2
/* Plugin-defined: quality_loss() is called instead of a built-in
 * metric and metric_name labels it in reports. */
#define MITHRA_METRIC_CUSTOM 3

/* ------------------------------------------------------------------ */
/* Cost description.                                                   */
/* ------------------------------------------------------------------ */

/*
 * Dynamic operation counts of one code region, in the host's
 * analytical cost model categories (src/sim/opcount.hh). The host
 * converts these into Nehalem-like cycles and energy; a plugin counts
 * the operations its precise kernel executes.
 */
typedef struct mithra_op_counts_v1 {
    uint64_t add_sub;        /* additions and subtractions            */
    uint64_t mul;            /* multiplications                       */
    uint64_t div_op;         /* divisions                             */
    uint64_t sqrt_op;        /* square roots                          */
    uint64_t transcendental; /* exp/log/sin/cos/pow and friends       */
    uint64_t compare;        /* comparisons and branches on data      */
    uint64_t memory;         /* abstract load/store traffic           */
} mithra_op_counts_v1;

/* ------------------------------------------------------------------ */
/* Accelerator backends.                                               */
/* ------------------------------------------------------------------ */

/*
 * An accelerator backend replaces the built-in NPU for workloads that
 * name it (mithra_workload_v1.backend). The host drives the same
 * offline workflow as for the NPU: create an instance, train it to
 * mimic sampled (input, output) pairs of the precise function, then
 * invoke it per accelerated invocation.
 *
 * All hooks receive the table's `ctx` pointer first; `instance` is
 * the opaque value returned by create(). Hooks must be deterministic:
 * train() must derive all randomness from `seed`.
 */
typedef struct mithra_backend_v1 {
    /* sizeof(mithra_backend_v1) at plugin build time (forward
     * compatibility: the host zero-fills any tail it knows about but
     * the plugin does not provide). */
    size_t struct_size;

    /* Unique backend name workloads reference, e.g. "lut16". */
    const char *name;

    /* Opaque plugin state passed to every hook. May be NULL. */
    void *ctx;

    /* Allocate one untrained accelerator instance. NULL on failure
     * (the host treats that as a fatal configuration error). */
    void *(*create)(void *ctx);

    /* Release an instance created by create(). */
    void (*destroy)(void *ctx, void *instance);

    /*
     * Train the instance to mimic the precise function on `count`
     * row-major sample pairs (inputs: count * input_width floats,
     * outputs: count * output_width floats). All randomness must
     * derive from `seed`. Returns the final training MSE in the
     * host's normalized units (>= 0), or a negative value on failure.
     */
    double (*train)(void *ctx, void *instance, const float *inputs,
                    const float *outputs, size_t count,
                    size_t input_width, size_t output_width,
                    uint64_t seed);

    /* One accelerated invocation: read input_width floats, write
     * output_width floats. Must be pure and reentrant: the host calls
     * it from multiple threads concurrently on the same trained
     * instance. */
    void (*invoke)(void *ctx, const void *instance, const float *input,
                   float *output);

    /* Modeled cost of one invoke() on the accelerator hardware. */
    void (*invocation_cost)(void *ctx, const void *instance,
                            uint64_t *cycles, double *picojoules);
} mithra_backend_v1;

/* ------------------------------------------------------------------ */
/* Workloads.                                                          */
/* ------------------------------------------------------------------ */

/*
 * A workload is one AxBench-class benchmark: a deterministic dataset
 * generator, the precise (safe-to-approximate) target function, the
 * final-output recomposition, and the quality metric the application
 * is judged by. Dataset handles are opaque plugin values owned by the
 * plugin and released through dataset_destroy.
 *
 * Threading: the host creates and traces many datasets concurrently.
 * Hooks must not share mutable state across calls; everything must be
 * a function of (ctx, dataset, arguments).
 */
typedef struct mithra_workload_v1 {
    /* sizeof(mithra_workload_v1) at plugin build time. */
    size_t struct_size;

    /* Unique workload name (registry key, cache key, report label). */
    const char *name;

    /* Application domain label, e.g. "Machine Learning". */
    const char *domain;

    /* One of the MITHRA_METRIC_* codes above. */
    int metric;

    /* Human-readable metric label; required when metric is
     * MITHRA_METRIC_CUSTOM, ignored otherwise. */
    const char *metric_name;

    /*
     * Custom final-quality metric, required when metric is
     * MITHRA_METRIC_CUSTOM (NULL otherwise): return the quality loss
     * of `candidate` against `reference` (both `count` floats of the
     * recomposed final output) in percent, >= 0, larger is worse.
     */
    double (*quality_loss)(void *ctx, const float *reference,
                           const float *candidate, size_t count);

    /* Width of one invocation's input / output vector. */
    size_t input_width;
    size_t output_width;

    /*
     * Accelerator topology, e.g. {6, 8, 1}: first entry must equal
     * input_width, last entry output_width. For the built-in NPU this
     * is the MLP layer layout; custom backends may interpret interior
     * entries freely (they still size the host's cost model tables).
     */
    const size_t *topology;
    size_t topology_len;

    /* NPU trainer knobs; 0 picks the host default. Ignored when a
     * custom backend is named. */
    size_t train_epochs;
    double train_learning_rate; /* 0.0 = host default */
    uint64_t train_seed;        /* 0 = host default */

    /* Quantizer code width of the table classifier; 0 defers to the
     * host's width-based policy. */
    unsigned int table_quantizer_bits;

    /* Create one dataset deterministically from `seed`. Equal seeds
     * must yield bitwise-equal datasets. NULL return is fatal. */
    void *(*dataset_create)(void *ctx, uint64_t seed);

    /* Release a dataset created by dataset_create(). */
    void (*dataset_destroy)(void *ctx, void *dataset);

    /* Number of target-function invocations the dataset performs. */
    size_t (*dataset_invocations)(void *ctx, const void *dataset);

    /* Input vector of invocation `index` (write input_width floats),
     * in application execution order. */
    void (*dataset_input)(void *ctx, const void *dataset, size_t index,
                          float *input);

    /* The precise target function: read input_width floats, write
     * output_width floats. Must be pure — the host also calls it on
     * inputs that never appeared in any dataset (drift harnesses,
     * the service's /invoke path). */
    void (*target_function)(void *ctx, const float *input,
                            float *output);

    /* Element count of the recomposed final output of `dataset`. */
    size_t (*final_size)(void *ctx, const void *dataset);

    /*
     * Rebuild the final application output from the per-invocation
     * output stream: `outputs` holds count * output_width floats,
     * where invocation i's vector is the approximate output when the
     * runtime chose the accelerator and the precise one otherwise.
     * Write final_size() floats to final_out. NULL means identity:
     * the final output is the concatenated output stream (final_size
     * must then equal count * output_width).
     */
    void (*recompose)(void *ctx, const void *dataset,
                      const float *outputs, size_t count,
                      float *final_out);

    /* Measured dynamic ops of one precise target-function invocation
     * and of the surrounding non-target region (per invocation). */
    mithra_op_counts_v1 target_ops;
    mithra_op_counts_v1 other_ops_per_invocation;

    /* Name of the accelerator backend to use, or NULL for the host's
     * NPU. The backend must be registered by the time the workload is
     * first compiled (same plugin or an earlier one in
     * MITHRA_PLUGINS). */
    const char *backend;

    /* Opaque plugin state passed to every hook. May be NULL. */
    void *ctx;
} mithra_workload_v1;

/* ------------------------------------------------------------------ */
/* The host table.                                                     */
/* ------------------------------------------------------------------ */

/*
 * Passed to mithra_plugin_register(). Registration functions return 0
 * on success and a negative value on invalid tables; the host copies
 * what it needs, so the tables may live on the plugin's stack. The
 * function-table ctx pointers must stay valid for the process
 * lifetime (plugins are never unloaded).
 */
typedef struct mithra_host_v1 {
    /* MITHRA_PLUGIN_ABI_VERSION of the host. */
    uint32_t abi_version;

    /* sizeof(mithra_host_v1) at host build time. */
    size_t struct_size;

    /* Opaque host state; pass to the registration functions. */
    void *host_ctx;

    int (*register_workload)(void *host_ctx,
                             const mithra_workload_v1 *workload);
    int (*register_backend)(void *host_ctx,
                            const mithra_backend_v1 *backend);
} mithra_host_v1;

/*
 * The two symbols every plugin exports. Declared for plugins that
 * include this header; the host resolves them with dlsym.
 */
uint32_t mithra_plugin_abi_version(void);
int mithra_plugin_register(const mithra_host_v1 *host);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* MITHRA_PLUGIN_H */
