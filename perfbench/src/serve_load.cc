#include "serve_load.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>

#include "datasets/io.h"
#include "serve/protocol.h"
#include "trace.h"

namespace perfbench {

using tgsim::Result;
using tgsim::Rng;
using tgsim::Status;
using tgsim::graphs::TemporalEdge;
using tgsim::graphs::TemporalGraph;
namespace serve = tgsim::serve;

namespace {

// Edges held out of the fitted graph; every update op absorbs them again.
// Small, because an update grows the fitted edge budget by this much.
constexpr int64_t kDeltaEdges = 4;
// A closed loop ends here even short of its sample count.
constexpr double kMaxLoadSeconds = 90;

/// One persistent client connection speaking line-delimited frames.
class Connection {
 public:
  Connection() = default;
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Status Open(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return Status::IoError(std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path))
      return Status::InvalidArgument("socket path too long: " + socket_path);
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      return Status::IoError("connect(" + socket_path +
                             "): " + std::strerror(errno));
    return Status::Ok();
  }

  /// Sends one frame and returns the reply line (without the newline).
  Result<std::string> Call(const std::string& frame) {
    std::string out = frame + "\n";
    size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IoError(std::strerror(errno));
      sent += static_cast<size_t>(n);
    }
    char chunk[65536];
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IoError("connection closed mid-reply");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

Result<serve::Json> CallOnce(Connection& conn, const serve::Request& request) {
  Result<std::string> frame = conn.Call(serve::RenderRequest(request));
  if (!frame.ok()) return frame.status();
  return serve::ParseReply(frame.value());
}

serve::Request GenerateRequest(const std::string& model, uint64_t seed) {
  serve::Request r;
  r.op = serve::RequestOp::kGenerate;
  r.model = model;
  r.seed = seed;
  return r;
}

/// Splits `graph` into (fit graph, delta): `k` distinct random edges move
/// to the delta, both keep the full node and timestamp universe.
std::pair<TemporalGraph, TemporalGraph> HoldOut(const TemporalGraph& graph,
                                                int64_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> picked =
      rng.SampleWithoutReplacement(graph.num_edges(), k);
  std::sort(picked.begin(), picked.end());
  std::vector<TemporalEdge> keep, delta;
  size_t next = 0;
  for (int64_t i = 0; i < graph.num_edges(); ++i) {
    const TemporalEdge& e = graph.edges()[static_cast<size_t>(i)];
    if (next < picked.size() && picked[next] == i) {
      delta.push_back(e);
      ++next;
    } else {
      keep.push_back(e);
    }
  }
  const int n = graph.num_nodes(), t = graph.num_timestamps();
  return {TemporalGraph::FromEdges(n, t, std::move(keep)),
          TemporalGraph::FromEdges(n, t, std::move(delta))};
}

}  // namespace

Result<std::unique_ptr<ServeFixture>> ServeFixture::Start(
    const ServeSetup& setup, const TemporalGraph& graph, uint64_t seed,
    double* fit_s) {
  auto fixture = std::unique_ptr<ServeFixture>(new ServeFixture());
  auto [fit_graph, delta] = HoldOut(graph, kDeltaEdges, seed ^ 0x5eed);
  fixture->delta_edges_ = delta.num_edges();
  fixture->update_cycle_ = setup.update_cycle;
  fixture->delta_path_ = setup.prefix + "delta.txt";
  Status wrote = WriteGraph(delta, fixture->delta_path_);
  if (!wrote.ok()) return wrote;

  if (fit_s != nullptr) *fit_s = 0;
  serve::ServeOptions options;
  int64_t total_charge = 0;
  for (size_t i = 0; i < setup.models.size(); ++i) {
    const ModelSpec& spec = setup.models[i];
    ServedModel model;
    model.method = spec.method;
    model.name = spec.method;
    model.path = setup.prefix + spec.method + ".tgsim";
    model.weight = setup.weights[i];
    Rng rng = tgsim::eval::MakeSeedStreams(seed).fit;
    double model_fit_s = 0;
    auto gen = FitModel(spec, fit_graph, rng, &model_fit_s);
    if (!gen.ok()) return gen.status();
    if (fit_s != nullptr) *fit_s += model_fit_s;
    Status saved = SaveModel(*gen.value(), spec, model.path);
    if (!saved.ok()) return saved;
    // The cache charges the loaded generator's resident bytes.
    Result<tgsim::eval::LoadedArtifact> loaded = LoadModel(model.path);
    if (!loaded.ok()) return loaded.status();
    model.charge = loaded.value().generator->ResidentStateBytes();
    if (model.charge < 0) model.charge = FileSize(model.path);
    total_charge += model.charge;
    options.models.push_back({model.name, model.path});
    fixture->models_.push_back(std::move(model));
  }
  // Headroom: an update may grow a model's charge (vector capacity).
  fixture->budget_ = 2 * total_charge;
  if (setup.evict_pair) {
    fixture->budget_ = total_charge - std::min(fixture->models_[0].charge,
                                               fixture->models_[1].charge) / 2;
  }
  options.cache_budget_bytes = fixture->budget_;
  options.workers = setup.workers;

  Span span("serve.start");
  Result<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(std::move(options));
  if (!server.ok()) return server.status();
  fixture->server_ = std::move(server).value();
  fixture->socket_ = setup.prefix + "serve.sock";
  Status listening = fixture->server_->Listen(fixture->socket_);
  if (!listening.ok()) return listening;
  return fixture;
}

LoadResult RunClosedLoop(const ServeFixture& fixture,
                         const LoadOptions& options) {
  const auto& models = fixture.models();
  // A deck of 100 model slots in proportion to the weights; each client
  // deals from its own copy, reshuffled every pass. The shares are exact
  // per pass, so a short loop sees the same mix every run, while the order
  // stays random, so clients do not fall into lock-step on one model.
  std::vector<size_t> deck;
  double total = 0;
  for (const ServedModel& m : models) total += m.weight;
  for (size_t i = 0; i < models.size(); ++i)
    deck.insert(deck.end(),
                static_cast<size_t>(std::llround(100 * models[i].weight / total)),
                i);
  const std::vector<size_t>& cycle = fixture.update_cycle();

  std::vector<LoadResult> per_client(static_cast<size_t>(options.clients));
  std::atomic<int64_t> generates_done{0};
  const double start = Now();
  auto client = [&](int id) {
    LoadResult& out = per_client[static_cast<size_t>(id)];
    Rng rng(options.seed * 1000003 + static_cast<uint64_t>(id));
    Connection conn;
    Status opened = conn.Open(fixture.socket());
    if (!opened.ok()) {
      ++out.attempted;
      ++out.failed;
      out.errors.push_back(opened.ToString());
      return;
    }
    // Client 0 sends every update_every-th request as an update (odd, so
    // traced runs trace some of them).
    const int64_t update_every =
        std::max<int64_t>(2, std::llround(1.0 / (options.update_share *
                                                 options.clients))) | 1;
    std::vector<size_t> my_deck = deck;
    size_t dealt = 0;
    for (int64_t i = 0;; ++i) {
      const double elapsed = Now() - start;
      if (elapsed >= std::max(kMaxLoadSeconds, options.seconds)) break;
      if (elapsed >= options.seconds &&
          generates_done.load() >= options.min_generates)
        break;
      const bool traced = options.trace && i % 2 == 0;
      SetTracing(traced);
      Span root("request");
      serve::Request request;
      size_t target = 0;
      if (id == 0 && !cycle.empty() && i % update_every == update_every - 1) {
        target = cycle[out.update_ms.size() % cycle.size()];
        request.op = serve::RequestOp::kUpdate;
        request.model = models[target].name;
        request.input = fixture.delta_path();
        request.seed = static_cast<uint64_t>(rng.UniformInt(1, 1 << 30));
      } else {
        if (dealt % my_deck.size() == 0) rng.Shuffle(my_deck);
        target = my_deck[dealt++ % my_deck.size()];
        request = GenerateRequest(models[target].name,
                                  static_cast<uint64_t>(rng.UniformInt(1, 1 << 30)));
      }
      const bool is_update = request.op == serve::RequestOp::kUpdate;
      ++out.attempted;
      const double t0 = Now();
      Result<std::string> sent = [&] {
        Span call(is_update ? "serve.update" : "serve.generate");
        return conn.Call(serve::RenderRequest(request));
      }();
      const double ms = (Now() - t0) * 1e3;
      Span parse("serve.parse_reply");
      // Declared after the span, so that freeing the reply (tens of KB,
      // returned to the OS by munmap) is charged to it.
      const Result<std::string> frame = std::move(sent);
      Result<serve::Json> reply =
          frame.ok() ? serve::ParseReply(frame.value())
                     : Result<serve::Json>(frame.status());
      std::string error;
      if (!reply.ok()) {
        error = reply.status().ToString();
      } else if (is_update) {
        const serve::Json* delta = reply.value().Find("delta_edges");
        if (delta == nullptr || delta->AsIntOr(-1) != fixture.delta_edges())
          error = "update reply does not report the delta";
      } else {
        const serve::Json* edges = reply.value().Find("edges");
        const serve::Json* method = reply.value().Find("method");
        if (edges == nullptr || edges->AsIntOr(0) <= 0 || method == nullptr ||
            method->AsStringOr("") != models[target].method)
          error = "generate reply lacks edges or names the wrong method";
      }
      if (!error.empty()) {
        ++out.failed;
        if (out.errors.size() < 5)
          out.errors.push_back(models[target].name + ": " + error);
        continue;
      }
      if (is_update) {
        ++out.updates_ok;
        out.update_ms.push_back(ms);
        continue;
      }
      out.generate_ms.push_back(ms);
      out.overhead.Add(static_cast<int>(target), traced, ms);
      out.edges += reply.value().Find("edges")->AsInt();
      out.reply_bytes += static_cast<int64_t>(frame.value().size());
      generates_done.fetch_add(1);
    }
    SetTracing(false);
  };
  std::vector<std::thread> threads;
  for (int id = 0; id < options.clients; ++id) threads.emplace_back(client, id);
  for (std::thread& t : threads) t.join();

  LoadResult merged;
  merged.wall_s = Now() - start;
  for (const LoadResult& r : per_client) merged.Append(r);
  return merged;
}

void LoadResult::Append(const LoadResult& other) {
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(generate_ms, other.generate_ms);
  append(update_ms, other.update_ms);
  overhead.Merge(other.overhead);
  attempted += other.attempted;
  failed += other.failed;
  edges += other.edges;
  reply_bytes += other.reply_bytes;
  updates_ok += other.updates_ok;
  wall_s += other.wall_s;
  errors.insert(errors.end(), other.errors.begin(), other.errors.end());
}

Result<ServerCounters> QueryCounters(const std::string& socket) {
  Connection conn;
  Status opened = conn.Open(socket);
  if (!opened.ok()) return opened;
  serve::Request request;
  request.op = serve::RequestOp::kStats;
  Result<serve::Json> reply = CallOnce(conn, request);
  if (!reply.ok()) return reply.status();
  const serve::Json* models = reply.value().Find("models");
  if (models == nullptr || !models->is_array())
    return Status::IoError("stats reply without models");
  ServerCounters c;
  for (const serve::Json& row : models->Items()) {
    auto get = [&](const char* key) {
      const serve::Json* v = row.Find(key);
      return v == nullptr ? 0.0 : v->AsDoubleOr(0.0);
    };
    c.requests += static_cast<int64_t>(get("requests"));
    c.loads += static_cast<int64_t>(get("loads"));
    c.evictions += static_cast<int64_t>(get("evictions"));
    const int64_t generates = static_cast<int64_t>(get("generates"));
    c.generates += generates;
    c.busy_s += get("mean_latency_s") * static_cast<double>(generates);
  }
  return c;
}

void ReportServe(const ServeFixture& fixture, const LoadResult& load,
                 const ServerCounters& before, const LoadOptions& options,
                 uint64_t probe_seed, Report& report) {
  report.Ops(load.attempted, load.failed, load.errors);
  const size_t n = load.generate_ms.size();
  report.Note("serve: " + std::to_string(n) + " generates, " +
              std::to_string(load.update_ms.size()) + " updates, " +
              std::to_string(n / 100) + " samples beyond p99, " +
              std::to_string(load.wall_s) + " s, cache budget " +
              std::to_string(fixture.budget()) + " bytes");
  if (static_cast<int64_t>(n) < options.min_generates)
    report.CheckFailed("serve loop ended before its minimum sample count");
  if (load.update_ms.empty()) report.CheckFailed("no update op completed");
  report.Set("serve_p50_ms", Median(load.generate_ms), "ms");
  report.Set("serve_p99_ms", Percentile(load.generate_ms, 99), "ms");
  report.Set("serve_rps", static_cast<double>(n) / load.wall_s, "1/s");
  report.Set("serve_update_p50_ms", Median(load.update_ms), "ms");

  Result<ServerCounters> after = QueryCounters(fixture.socket());
  report.Op(after.ok(), after.ok() ? "" : after.status().ToString());
  if (after.ok()) {
    const ServerCounters& a = after.value();
    const double generates = static_cast<double>(a.generates - before.generates);
    const double server_ms =
        generates > 0 ? (a.busy_s - before.busy_s) / generates * 1e3 : 0;
    double mean_ms = 0;
    for (double ms : load.generate_ms) mean_ms += ms;
    mean_ms = n > 0 ? mean_ms / static_cast<double>(n) : 0;
    const double requests = static_cast<double>(a.requests - before.requests);
    const double reloads =
        static_cast<double>(a.loads - before.loads - load.updates_ok);
    report.Set("serve.server_generate_ms", server_ms, "ms");
    report.Set("serve.overhead_ms", mean_ms - server_ms, "ms");
    report.Set("serve.cache_hit_share",
               requests > 0 ? 1.0 - reloads / requests : 1.0, "share");
    report.Set("serve.evictions",
               static_cast<double>(a.evictions - before.evictions), "count");
    report.Set("serve.reply_bytes",
               n > 0 ? static_cast<double>(load.reply_bytes) /
                           static_cast<double>(n)
                     : 0,
               "bytes");
  }

  // Probes: quiescent, after the loop, so the artifact on disk is the state
  // the server holds (updates rewrite it).
  Connection conn;
  Status opened = conn.Open(fixture.socket());
  report.Op(opened.ok(), opened.ToString());
  if (!opened.ok()) return;
  SetTracing(options.trace);
  for (const ServedModel& model : fixture.models()) {
    Span root("probe");
    Result<serve::Json> reply = [&] {
      Span call("serve.generate");
      return CallOnce(conn, GenerateRequest(model.name, probe_seed));
    }();
    const serve::Json* payload =
        reply.ok() ? reply.value().Find("payload") : nullptr;
    if (payload == nullptr || !payload->is_string()) {
      report.Op(false, model.name + " probe: " + reply.status().ToString());
      continue;
    }
    Result<tgsim::eval::LoadedArtifact> loaded = LoadModel(model.path);
    if (!loaded.ok()) {
      report.Op(false, loaded.status().ToString());
      continue;
    }
    TemporalGraph local =
        GenerateGraph(*loaded.value().generator, model.method, probe_seed);
    std::ostringstream bytes;
    {
      Span write("datasets.write");
      write.Arg("edges", static_cast<double>(local.num_edges()));
      tgsim::datasets::WriteEdgeList(local, bytes);
    }
    report.Op(true);
    if (bytes.str() != payload->AsString())
      report.CheckFailed(model.name + " served payload differs from "
                         "in-process generate");
  }
  SetTracing(false);
}

}  // namespace perfbench
