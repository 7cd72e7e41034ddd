#include "service/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "axbench/registry.hh"
#include "common/contracts.hh"
#include "common/env_registry.hh"
#include "common/kernels/kernels.hh"
#include "common/logging.hh"
#include "service/invoke.hh"
#include "telemetry/run_report.hh"
#include "telemetry/telemetry.hh"

namespace mithra::service
{

namespace
{

using telemetry::Json;

HttpResponse
jsonResponse(int status, const Json &body)
{
    HttpResponse response;
    response.status = status;
    response.body = body.dump(1) + "\n";
    return response;
}

HttpResponse
errorResponse(int status, const std::string &message)
{
    Json::Object error;
    error.emplace("status", Json(static_cast<std::int64_t>(status)));
    error.emplace("error", Json(message));
    MITHRA_COUNT("service.http_errors", 1);
    return jsonResponse(status, Json(std::move(error)));
}

/** "" on success; error text otherwise. Absent keys keep `out`. */
std::string
readCount(const Json &body, const char *key, std::size_t lo,
          std::size_t hi, std::size_t &out)
{
    const Json *value = body.find(key);
    if (!value)
        return "";
    if (value->kind() != Json::Kind::Int || value->asInt() < 0)
        return std::string("`") + key
            + "' must be a non-negative integer";
    const std::size_t parsed =
        static_cast<std::size_t>(value->asInt());
    if (parsed < lo || parsed > hi)
        return std::string("`") + key + "' must be in ["
            + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    out = parsed;
    return "";
}

/** "" on success; error text otherwise. Open interval (lo, hi). */
std::string
readRate(const Json &body, const char *key, double lo, double hi,
         double &out)
{
    const Json *value = body.find(key);
    if (!value)
        return "";
    if (value->kind() != Json::Kind::Double
        && value->kind() != Json::Kind::Int)
        return std::string("`") + key + "' must be a number";
    const double parsed = value->asNumber();
    if (!(parsed > lo) || !(parsed < hi))
        return std::string("`") + key + "' must be in ("
            + std::to_string(lo) + ", " + std::to_string(hi) + ")";
    out = parsed;
    return "";
}

/**
 * "" on success; error text otherwise. Absent keys keep `out`.
 * Elements must be integers in [lo, hi], ascending.
 */
std::string
readSizeArray(const Json &body, const char *key, std::size_t lo,
              std::size_t hi, std::vector<std::size_t> &out)
{
    const Json *value = body.find(key);
    if (!value)
        return "";
    if (value->kind() != Json::Kind::Array || value->asArray().empty())
        return std::string("`") + key
            + "' must be a non-empty array of integers";
    std::vector<std::size_t> parsed;
    for (const Json &entry : value->asArray()) {
        if (entry.kind() != Json::Kind::Int || entry.asInt() < 0)
            return std::string("`") + key
                + "' must hold non-negative integers";
        const std::size_t element =
            static_cast<std::size_t>(entry.asInt());
        if (element < lo || element > hi)
            return std::string("`") + key + "' elements must be in ["
                + std::to_string(lo) + ", " + std::to_string(hi) + "]";
        if (!parsed.empty() && element <= parsed.back())
            return std::string("`") + key
                + "' must be strictly ascending";
        parsed.push_back(element);
    }
    out = std::move(parsed);
    return "";
}

/** Parse + validate a POST /jobs body; "" on success. */
std::string
parseJobSpec(const Json &body, JobSpec &spec)
{
    if (body.kind() != Json::Kind::Object)
        return "job spec must be a JSON object";

    if (const Json *kind = body.find("kind")) {
        if (kind->kind() != Json::Kind::String
            || (kind->asString() != "compile"
                && kind->asString() != "dse"))
            return "`kind' must be \"compile\" or \"dse\"";
        spec.kind = kind->asString();
    }

    const Json *benchmark = body.find("benchmark");
    if (!benchmark || benchmark->kind() != Json::Kind::String)
        return "`benchmark' string is required";
    spec.benchmark = benchmark->asString();
    const std::vector<std::string> known = axbench::benchmarkNames();
    if (std::find(known.begin(), known.end(), spec.benchmark)
        == known.end()) {
        std::string names;
        for (const std::string &name : known)
            names += (names.empty() ? "" : ", ") + name;
        return "unknown benchmark `" + spec.benchmark + "' (known: "
            + names + ")";
    }

    if (const Json *design = body.find("design")) {
        if (design->kind() != Json::Kind::String
            || (design->asString() != "table"
                && design->asString() != "neural"))
            return "`design' must be \"table\" or \"neural\"";
        spec.model.design = design->asString();
    }

    std::string problem;
    if (!(problem = readCount(body, "shards", 1, 64,
                              spec.model.shards))
             .empty())
        return problem;
    if (!(problem = readRate(body, "maxQualityLossPct", 0.0, 100.0,
                             spec.model.spec.maxQualityLossPct))
             .empty())
        return problem;
    if (!(problem = readRate(body, "confidence", 0.0, 1.0,
                             spec.model.spec.confidence))
             .empty())
        return problem;
    if (!(problem = readRate(body, "successRate", 0.0, 1.0,
                             spec.model.spec.successRate))
             .empty())
        return problem;
    if (!(problem = readCount(body, "compileDatasets", 0, 100000,
                              spec.compileDatasets))
             .empty())
        return problem;
    if (!(problem = readCount(body, "npuTrainSamples", 16, 10000000,
                              spec.npuTrainSamples))
             .empty())
        return problem;
    if (!(problem = readCount(body, "classifierTuples", 16, 100000000,
                              spec.classifierTuples))
             .empty())
        return problem;
    if (const Json *seed = body.find("seed")) {
        if (seed->kind() != Json::Kind::Int)
            return "`seed' must be an integer";
        spec.seed = static_cast<std::uint64_t>(seed->asInt());
    }
    if (const Json *watchdog = body.find("watchdog")) {
        if (watchdog->kind() != Json::Kind::Bool)
            return "`watchdog' must be a boolean";
        spec.model.watchdog.enabled = watchdog->asBool();
    }
    if (!(problem = readRate(body, "watchdogRate", 0.0, 1.0,
                             spec.model.watchdog.baseAuditRate))
             .empty())
        return problem;
    if (!(problem = readRate(body, "watchdogMaxViolation", 0.0, 1.0,
                             spec.model.watchdog.maxViolationRate))
             .empty())
        return problem;

    // Candidate axes of a "dse" job; accepted (and checked) even for
    // compile jobs so a client can flip `kind` without reshaping the
    // body, but only the explorer reads them.
    if (!(problem = readSizeArray(body, "tableCounts", 1, 64,
                                  spec.axes.tableCounts))
             .empty())
        return problem;
    if (!(problem = readSizeArray(body, "tableBytes", 16, 1 << 20,
                                  spec.axes.tableBytes))
             .empty())
        return problem;
    std::vector<std::size_t> bits;
    if (!(problem = readSizeArray(body, "quantizerBits", 0, 16, bits))
             .empty())
        return problem;
    if (!bits.empty()) {
        spec.axes.quantizerBits.clear();
        for (const std::size_t b : bits)
            spec.axes.quantizerBits.push_back(
                static_cast<unsigned>(b));
    }
    return "";
}

Json
jobJson(const JobSnapshot &snap)
{
    Json::Object out;
    out.emplace("id", Json(snap.id));
    out.emplace("state", Json(jobStateName(snap.state)));
    out.emplace("benchmark", Json(snap.benchmark));
    if (snap.state == JobState::Failed)
        out.emplace("error", Json(snap.error));
    if (snap.state == JobState::Done)
        out.emplace("result", snap.result);
    return Json(std::move(out));
}

/** Write all of `data`; false on a connection error. */
bool
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t wrote =
            ::send(fd, data.data() + sent, data.size() - sent,
                   MSG_NOSIGNAL);
        if (wrote < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(wrote);
    }
    return true;
}

} // namespace

ServerOptions
ServerOptions::fromEnv()
{
    ServerOptions out;
    out.port = static_cast<std::uint16_t>(
        env::countIn("MITHRA_SERVE_PORT", 0, 65535, 0));
    out.workers = env::countIn("MITHRA_SERVE_WORKERS", 1, 256, 4);
    out.jobQueueDepth =
        env::countIn("MITHRA_SERVE_JOB_QUEUE", 1, 4096, 16);
    out.maxBodyBytes = env::countIn("MITHRA_SERVE_MAX_BODY", 1024,
                                    1073741824, 8u << 20);
    out.requestTimeoutMs = env::countIn("MITHRA_SERVE_TIMEOUT_MS", 100,
                                        600000, 10000);
    return out;
}

Server::Server(const ServerOptions &serverOptions)
    : options(serverOptions),
      jobManager(registry, serverOptions.jobQueueDepth)
{
    MITHRA_EXPECTS(options.workers >= 1,
                   "server needs at least one worker");
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (running.load())
        return;

    // Choose the kernel backend before the port binds: `/metrics`
    // then reports kernels.backend before any job runs, and a bad
    // MITHRA_KERNELS stops the server here instead of failing the
    // first compile job.
    kernels::activeBackend();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("mithra-serve: socket(): ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(options.port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&address),
               sizeof(address))
        != 0)
        fatal("mithra-serve: cannot bind 127.0.0.1:", options.port,
              ": ", std::strerror(errno));
    if (::listen(fd, 64) != 0)
        fatal("mithra-serve: listen(): ", std::strerror(errno));

    sockaddr_in bound{};
    socklen_t length = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &length)
        != 0)
        fatal("mithra-serve: getsockname(): ", std::strerror(errno));
    boundPort = ntohs(bound.sin_port);
    listenFd.store(fd);

    running.store(true);
    jobManager.start();
    acceptor = std::thread([this] { acceptLoop(); });
    pool.reserve(options.workers);
    for (std::size_t i = 0; i < options.workers; ++i)
        pool.emplace_back([this] { workerLoop(); });
    inform("mithra-serve: listening on 127.0.0.1:", boundPort, " (",
           options.workers, " workers)");
}

void
Server::stop()
{
    if (!running.exchange(false))
        return;
    // Unblock accept() by tearing the listening socket down.
    const int fd = listenFd.exchange(-1);
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
    acceptor.join();
    {
        std::lock_guard<std::mutex> hold(connMutex);
        for (std::size_t i = 0; i < pool.size(); ++i)
            pending.push_back(-1);
    }
    connReady.notify_all();
    for (std::thread &worker : pool)
        worker.join();
    pool.clear();
    {
        std::lock_guard<std::mutex> hold(connMutex);
        for (const int fd : pending) {
            if (fd >= 0)
                ::close(fd);
        }
        pending.clear();
    }
    jobManager.stop();
}

void
Server::acceptLoop()
{
    while (running.load()) {
        const int listener = listenFd.load();
        if (listener < 0)
            return;
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // stop() tore the socket down
        }
        {
            std::lock_guard<std::mutex> hold(connMutex);
            pending.push_back(fd);
        }
        connReady.notify_one();
    }
}

void
Server::workerLoop()
{
    for (;;) {
        int fd = -1;
        {
            std::unique_lock<std::mutex> hold(connMutex);
            connReady.wait(hold, [this] { return !pending.empty(); });
            fd = pending.front();
            pending.pop_front();
        }
        if (fd < 0)
            return;
        serveConnection(fd);
    }
}

void
Server::serveConnection(int fd)
{
    HttpLimits limits;
    limits.maxBodyBytes = options.maxBodyBytes;
    RequestParser parser(limits);
    char buffer[16384];
    std::size_t unservedBytes = 0;

    for (;;) {
        pollfd waiter{};
        waiter.fd = fd;
        waiter.events = POLLIN;
        const int ready =
            ::poll(&waiter, 1,
                   static_cast<int>(options.requestTimeoutMs));
        if (ready == 0) {
            // Idle keep-alive connections just close; a half-sent
            // request gets told why.
            if (unservedBytes > 0)
                sendAll(fd,
                        serializeResponse(
                            errorResponse(408, "request timed out"),
                            false));
            break;
        }
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
        if (got <= 0) {
            if (got < 0 && errno == EINTR)
                continue;
            break; // peer closed or connection error
        }
        unservedBytes += static_cast<std::size_t>(got);
        RequestParser::Status status =
            parser.feed(buffer, static_cast<std::size_t>(got));
        bool open = true;
        while (status == RequestParser::Status::Complete) {
            const HttpRequest &request = parser.request();
            const HttpResponse response = handle(request);
            const bool keep =
                request.keepAlive && !response.closeConnection;
            if (!sendAll(fd, serializeResponse(response, keep))
                || !keep) {
                open = false;
                break;
            }
            unservedBytes = 0;
            status = parser.next();
        }
        if (!open)
            break;
        if (status == RequestParser::Status::Error) {
            sendAll(fd,
                    serializeResponse(
                        errorResponse(parser.errorStatus(),
                                      parser.errorReason()),
                        false));
            break;
        }
    }
    ::close(fd);
}

HttpResponse
Server::handle(const HttpRequest &request)
{
    MITHRA_COUNT("service.requests", 1);
    const std::string &target = request.target;

    if (target == "/jobs" || target.rfind("/jobs/", 0) == 0) {
        if (request.method == "POST" && target == "/jobs")
            return handleJobs(request);
        if (request.method == "GET") {
            if (target == "/jobs") {
                Json::Array all;
                for (const JobSnapshot &snap : jobManager.list())
                    all.push_back(jobJson(snap));
                Json::Object out;
                out.emplace("jobs", Json(std::move(all)));
                return jsonResponse(200, Json(std::move(out)));
            }
            return handleJobGet(target.substr(6));
        }
        return errorResponse(405, "use POST /jobs or GET /jobs[/<id>]");
    }

    if (target == "/invoke") {
        if (request.method != "POST")
            return errorResponse(405, "use POST /invoke");
        return handleInvoke(request);
    }

    if (target == "/models" || target.rfind("/models/", 0) == 0) {
        if (request.method != "GET")
            return errorResponse(405, "use GET /models[/<id>]");
        return handleModels(target == "/models" ? ""
                                                : target.substr(8));
    }

    if (target == "/metrics") {
        if (request.method != "GET")
            return errorResponse(405, "use GET /metrics");
        return jsonResponse(200, telemetry::metricsDocument());
    }

    if (target == "/healthz") {
        if (request.method != "GET")
            return errorResponse(405, "use GET /healthz");
        Json::Object out;
        out.emplace("status", Json("ok"));
        return jsonResponse(200, Json(std::move(out)));
    }

    return errorResponse(404, "no such resource `" + target + "'");
}

HttpResponse
Server::handleJobs(const HttpRequest &request)
{
    const telemetry::ParseResult parsed =
        telemetry::parseJson(request.body);
    if (!parsed.ok)
        return errorResponse(400, "invalid JSON body: " + parsed.error);
    JobSpec spec;
    const std::string problem = parseJobSpec(parsed.value, spec);
    if (!problem.empty())
        return errorResponse(400, problem);

    std::string id;
    if (!jobManager.submit(spec, id))
        return errorResponse(429, "job queue is full; retry later");
    Json::Object out;
    out.emplace("id", Json(id));
    out.emplace("state", Json("queued"));
    return jsonResponse(202, Json(std::move(out)));
}

HttpResponse
Server::handleJobGet(const std::string &id)
{
    JobSnapshot snap;
    if (!jobManager.snapshot(id, snap))
        return errorResponse(404, "no such job `" + id + "'");
    return jsonResponse(200, jobJson(snap));
}

HttpResponse
Server::handleInvoke(const HttpRequest &request)
{
    std::shared_ptr<Model> model;
    const InvokeRequest decoded = decodeInvoke(
        request.body, [&](const std::string &id) -> InvokeTarget {
            model = registry.find(id);
            if (model)
                return {200, "", model->inputWidth()};
            JobSnapshot snap;
            if (jobManager.snapshot(id, snap)
                && snap.state != JobState::Failed) {
                return {409,
                        "model `" + id + "' is not ready (job is "
                            + jobStateName(snap.state) + ")",
                        0};
            }
            return {404, "no such model `" + id + "'", 0};
        });
    if (decoded.status != 200)
        return errorResponse(decoded.status, decoded.error);

    HttpResponse response;
    response.status = 200;
    response.body = encodeInvoke(
        model->id(), model->invoke(decoded.cells.data(), decoded.rows));
    return response;
}

HttpResponse
Server::handleModels(const std::string &id)
{
    if (id.empty()) {
        Json::Array all;
        for (const std::shared_ptr<Model> &model : registry.list())
            all.push_back(model->describe());
        Json::Object out;
        out.emplace("models", Json(std::move(all)));
        return jsonResponse(200, Json(std::move(out)));
    }
    const std::shared_ptr<Model> model = registry.find(id);
    if (!model)
        return errorResponse(404, "no such model `" + id + "'");
    return jsonResponse(200, model->describe());
}

} // namespace mithra::service
