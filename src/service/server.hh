/**
 * @file
 * The MITHRA service shell: a dependency-free HTTP/1.1 server over
 * blocking POSIX sockets and a small worker pool (DESIGN.md §14).
 *
 * Endpoints:
 *
 *   POST /jobs         submit an async compile/train job (202/400/429)
 *   GET  /jobs         list job snapshots
 *   GET  /jobs/<id>    poll one job (state, result, error)
 *   POST /invoke       decide one batch for a published model,
 *                      returning route decisions + a quality
 *                      certificate (200/400/404/409)
 *   GET  /models       list published models
 *   GET  /models/<id>  one model's config, totals and watchdog state
 *   GET  /metrics      the telemetry registry's deterministic JSON
 *   GET  /healthz      liveness probe
 *
 * Shell-vs-core boundary: this directory is the ONLY src/ home of
 * wall-clock time, sockets and scheduling nondeterminism (enforced
 * statically by the no-raw-timing lint rule and
 * mithra-analyze's taint quarantine). Everything the endpoints
 * *compute* — decisions, certificates, metrics documents — is
 * produced by the deterministic core: a pure function of the request
 * sequence, independent of MITHRA_THREADS, worker count, or timing.
 *
 * The router (handle()) is separated from the socket loop so tests
 * can drive the full API without networking. The server binds
 * loopback only — it is an experiment harness, not a hardened
 * front door.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/http.hh"
#include "service/jobs.hh"
#include "service/model.hh"

namespace mithra::service
{

/** Shell knobs; every field has a MITHRA_SERVE_* environment knob. */
struct ServerOptions
{
    /** TCP port to bind on loopback; 0 = ephemeral (see port()). */
    std::uint16_t port = 0;
    /** Connection worker threads. */
    std::size_t workers = 4;
    /** Bounded job-queue depth (429 past it). */
    std::size_t jobQueueDepth = 16;
    /** Largest accepted request body, bytes (413 past it). */
    std::size_t maxBodyBytes = 8u << 20;
    /** Per-connection read/idle timeout, milliseconds. */
    std::size_t requestTimeoutMs = 10000;

    /** Defaults overridden by MITHRA_SERVE_{PORT,WORKERS,JOB_QUEUE,
     *  MAX_BODY,TIMEOUT_MS} (README env table). */
    static ServerOptions fromEnv();
};

/** The long-running service instance. */
class Server
{
  public:
    explicit Server(const ServerOptions &serverOptions = ServerOptions{});
    ~Server();

    /** Choose the kernel backend, then bind, listen, spawn
     *  acceptor/workers/job worker. fatal() on a bad MITHRA_KERNELS
     *  or when the port cannot be bound. Idempotent. */
    void start();

    /** Stop accepting, drain workers, stop the job worker. */
    void stop();

    /** The bound port (the ephemeral one when options.port was 0);
     *  valid after start(). */
    std::uint16_t port() const { return boundPort; }

    ModelRegistry &models() { return registry; }
    JobManager &jobs() { return jobManager; }

    /**
     * The socket-free router: map one parsed request to a response.
     * Public so tests exercise the full API surface in-process.
     */
    HttpResponse handle(const HttpRequest &request);

  private:
    void acceptLoop();
    void workerLoop();
    void serveConnection(int fd);

    HttpResponse handleJobs(const HttpRequest &request);
    HttpResponse handleJobGet(const std::string &id);
    HttpResponse handleInvoke(const HttpRequest &request);
    HttpResponse handleModels(const std::string &id);

    ServerOptions options;
    ModelRegistry registry;
    JobManager jobManager;

    /** Atomic: stop() closes it while acceptLoop() is blocked on it. */
    std::atomic<int> listenFd{-1};
    std::uint16_t boundPort = 0;
    std::atomic<bool> running{false};
    std::thread acceptor;
    std::vector<std::thread> pool;

    std::mutex connMutex;
    std::condition_variable connReady;
    /** Accepted fds waiting for a worker; -1 is the stop sentinel. */
    std::deque<int> pending;
};

} // namespace mithra::service
