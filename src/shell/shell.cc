#include "shell/shell.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "estimation/eval_cache.h"
#include "common/str_util.h"
#include "construct/personalizer.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "storage/constraints.h"
#include "storage/csv.h"
#include "workload/movie_gen.h"
#include "workload/tourist_gen.h"

namespace cqp::shell {

namespace {

constexpr const char* kHelp = R"(commands:
  .help                       this text
  .gen movies [n]             generate the synthetic movie database
  .gen tourist                generate the tourist database
  .load REL(a INT, ...) FILE  load a CSV file as a new table
  .tables                     list tables
  .schema REL                 show one table's schema
  .profile add LINE           add "doi(...) = d" preference
  .profile load FILE          load a profile file
  .profile show               print the current profile
  .profile clear              drop all preferences
  .problem N key=value...     pick the CQP problem (Table 1), e.g.
                                .problem 2 cmax=400
                                .problem 3 cmax=400 smin=1 smax=50
                                .problem 4 dmin=0.8
  .algorithm NAME             pick the search algorithm
  .algorithms                 list algorithms
  .k N                        preference-space size cap
  .budget key=value...        per-query search budget, e.g.
                                .budget deadline=5 states=10000 memory=64
                                (ms / expansions / MB; 0 or "off" = unlimited)
  .failpoints [SPEC|off]      fault injection, e.g.
                                .failpoints space.extract=1.0:42
  .settings                   show problem/algorithm/K/budget
  .constraints                show the catalog integrity constraints
  .constraints derive         mine keys/domains/implications from the data
  .constraints load FILE      load a constraint file (key/domain/imply lines)
  .constraints clear          drop all constraints
  .sql QUERY                  run QUERY without personalization
  .explain QUERY              personalize, show plan only (with the
                              pre-rewrite SQL when the optimizer fired)
  .batch [n=N] [threads=T] QUERY
                              personalize N copies of QUERY on a worker
                              pool (default n=8, threads=hardware)
  .plans [clear]              show the session plan cache (hits, misses,
                              entries), or drop every cached plan
  .serve [port]               serve this database/profile over TCP
                              (port 0 or omitted = ephemeral; see docs/server.md)
  .serve stop                 stop the embedded server
  .connect host:port          route queries to a remote cqp server
  .disconnect                 drop the remote connection
  .stats                      server stats JSON (remote when connected,
                              else the embedded .serve server; includes the
                              shard tier when the store is sharded)
  QUERY                       personalize QUERY and execute
  .quit                       exit
)";

/// Splits "cmd rest" at the first whitespace.
std::pair<std::string, std::string> SplitCommand(std::string_view line) {
  size_t space = line.find_first_of(" \t");
  if (space == std::string_view::npos) {
    return {std::string(line), ""};
  }
  return {std::string(line.substr(0, space)),
          std::string(StripWhitespace(line.substr(space + 1)))};
}

/// Parses "REL(a INT, b STRING, ...)" into a RelationDef.
StatusOr<catalog::RelationDef> ParseSchemaSpec(const std::string& spec) {
  size_t open = spec.find('(');
  size_t close = spec.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    return InvalidArgument("schema must look like REL(a INT, b STRING)");
  }
  std::string name(StripWhitespace(spec.substr(0, open)));
  if (name.empty()) return InvalidArgument("missing relation name");
  std::vector<catalog::AttributeDef> attrs;
  for (const std::string& part :
       Split(spec.substr(open + 1, close - open - 1), ',')) {
    std::string_view trimmed = StripWhitespace(part);
    if (trimmed.empty()) continue;
    size_t space = trimmed.find_first_of(" \t");
    if (space == std::string_view::npos) {
      return InvalidArgument("column needs a type: " + std::string(trimmed));
    }
    std::string col(StripWhitespace(trimmed.substr(0, space)));
    std::string type_name(StripWhitespace(trimmed.substr(space + 1)));
    catalog::ValueType type;
    if (EqualsIgnoreCase(type_name, "INT")) {
      type = catalog::ValueType::kInt;
    } else if (EqualsIgnoreCase(type_name, "DOUBLE")) {
      type = catalog::ValueType::kDouble;
    } else if (EqualsIgnoreCase(type_name, "STRING")) {
      type = catalog::ValueType::kString;
    } else {
      return InvalidArgument("unknown type " + type_name);
    }
    attrs.push_back({col, type});
  }
  if (attrs.empty()) return InvalidArgument("schema has no columns");
  return catalog::RelationDef(name, std::move(attrs));
}

/// Locale-independent strict number parsing (no exceptions).
bool ParseIntStrict(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDoubleStrict(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

/// Parses "key=value" pairs into a map.
StatusOr<std::map<std::string, double>> ParseKeyValues(
    const std::string& args) {
  std::map<std::string, double> out;
  for (const std::string& part : Split(args, ' ')) {
    std::string_view trimmed = StripWhitespace(part);
    if (trimmed.empty()) continue;
    size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return InvalidArgument("expected key=value, got " +
                             std::string(trimmed));
    }
    std::string key = ToLower(trimmed.substr(0, eq));
    double value = 0;
    if (!ParseDoubleStrict(std::string(trimmed.substr(eq + 1)), &value)) {
      return InvalidArgument("bad number in " + std::string(trimmed));
    }
    out[key] = value;
  }
  return out;
}

}  // namespace

CqpShell::CqpShell() {
  problem_ = cqp::ProblemSpec::Problem2(400.0);
  space_options_.max_k = 20;
}

bool CqpShell::ProcessLine(const std::string& raw, std::ostream& out) {
  std::string line(StripWhitespace(raw));
  if (line.empty() || line[0] == '#') return true;
  if (EqualsIgnoreCase(line, ".quit") || EqualsIgnoreCase(line, ".exit")) {
    return false;
  }
  Status status = HandleCommand(line, out);
  if (!status.ok()) out << "error: " << status.ToString() << "\n";
  return true;
}

Status CqpShell::HandleCommand(const std::string& line, std::ostream& out) {
  if (line[0] != '.') {
    if (client_.connected()) return HandleRemoteQuery(line, out);
    return HandleQuery(line, /*execute=*/true, out);
  }
  auto [cmd, args] = SplitCommand(line);
  std::string command = ToLower(cmd);

  if (command == ".help") {
    out << kHelp;
    return Status::OK();
  }
  if (command == ".gen") return HandleGen(args);
  if (command == ".load") return HandleLoad(args);
  if (command == ".tables") {
    if (db_ == nullptr) return FailedPrecondition("no database loaded");
    for (const std::string& name : db_->TableNames()) {
      const storage::Table* table = *db_->GetTable(name);
      out << StrFormat("%-12s %8llu rows %6llu blocks\n", name.c_str(),
                       static_cast<unsigned long long>(table->row_count()),
                       static_cast<unsigned long long>(table->blocks()));
    }
    return Status::OK();
  }
  if (command == ".schema") {
    if (db_ == nullptr) return FailedPrecondition("no database loaded");
    CQP_ASSIGN_OR_RETURN(const storage::Table* table, db_->GetTable(args));
    out << table->schema().ToString() << "\n";
    return Status::OK();
  }
  if (command == ".profile") return HandleProfile(args, out);
  if (command == ".problem") return HandleProblem(args);
  if (command == ".algorithm") {
    CQP_ASSIGN_OR_RETURN(const cqp::Algorithm* algorithm,
                         cqp::GetAlgorithm(args));
    algorithm_ = algorithm->name();
    return Status::OK();
  }
  if (command == ".algorithms") {
    for (const std::string& name : cqp::AlgorithmNames()) {
      out << "  " << name << "\n";
    }
    return Status::OK();
  }
  if (command == ".k") {
    int64_t k = 0;
    if (!ParseIntStrict(args, &k)) {
      return InvalidArgument(".k expects an integer");
    }
    if (k <= 0 || k >= 64) return InvalidArgument("K must be in [1, 63]");
    space_options_.max_k = static_cast<size_t>(k);
    return Status::OK();
  }
  if (command == ".settings") {
    out << "problem   : " << problem_.ToString() << "\n";
    out << "algorithm : " << algorithm_ << "\n";
    out << "K         : " << space_options_.max_k << "\n";
    out << "budget    : " << MakeBudget().ToString() << "\n";
    return Status::OK();
  }
  if (command == ".constraints") return HandleConstraints(args, out);
  if (command == ".budget") return HandleBudget(args, out);
  if (command == ".failpoints") return HandleFailpoints(args, out);
  if (command == ".sql") return HandleRawSql(args, out);
  if (command == ".explain") {
    return HandleQuery(args, /*execute=*/false, out);
  }
  if (command == ".batch") return HandleBatch(args, out);
  if (command == ".plans") return HandlePlans(args, out);
  if (command == ".serve") return HandleServe(args, out);
  if (command == ".connect") return HandleConnect(args, out);
  if (command == ".stats") return HandleStats(out);
  if (command == ".disconnect") {
    if (!client_.connected()) return FailedPrecondition("not connected");
    client_.Close();
    out << "disconnected\n";
    return Status::OK();
  }
  return InvalidArgument("unknown command " + command + " (try .help)");
}

Status CqpShell::HandleGen(const std::string& args) {
  if (server_ != nullptr) {
    return FailedPrecondition(
        "the embedded server holds this database; .serve stop first");
  }
  auto [kind, rest] = SplitCommand(args);
  if (EqualsIgnoreCase(kind, "movies")) {
    workload::MovieDbConfig config;
    config.n_movies = 5000;
    config.n_directors = 500;
    config.n_actors = 1000;
    if (!rest.empty()) {
      if (!ParseIntStrict(rest, &config.n_movies)) {
        return InvalidArgument(".gen movies expects a row count");
      }
      config.n_directors = std::max<int64_t>(10, config.n_movies / 10);
      config.n_actors = std::max<int64_t>(20, config.n_movies / 5);
    }
    CQP_ASSIGN_OR_RETURN(storage::Database db,
                         workload::BuildMovieDatabase(config));
    db_ = std::make_unique<storage::Database>(std::move(db));
    return RebuildGraph();
  }
  if (EqualsIgnoreCase(kind, "tourist")) {
    CQP_ASSIGN_OR_RETURN(storage::Database db,
                         workload::BuildTouristDatabase({}));
    db_ = std::make_unique<storage::Database>(std::move(db));
    return RebuildGraph();
  }
  return InvalidArgument(".gen expects 'movies [n]' or 'tourist'");
}

Status CqpShell::HandleLoad(const std::string& args) {
  if (server_ != nullptr) {
    return FailedPrecondition(
        "the embedded server holds this database; .serve stop first");
  }
  size_t close = args.rfind(')');
  if (close == std::string::npos) {
    return InvalidArgument(".load REL(a INT, ...) file.csv");
  }
  CQP_ASSIGN_OR_RETURN(catalog::RelationDef schema,
                       ParseSchemaSpec(args.substr(0, close + 1)));
  std::string path(StripWhitespace(args.substr(close + 1)));
  if (path.empty()) return InvalidArgument("missing CSV path");
  if (db_ == nullptr) db_ = std::make_unique<storage::Database>();
  CQP_ASSIGN_OR_RETURN(storage::Table * table,
                       storage::LoadCsvFile(db_.get(), schema, path));
  (void)table;
  db_->Analyze();
  return RebuildGraph();
}

Status CqpShell::HandleProfile(const std::string& args, std::ostream& out) {
  auto [sub, rest] = SplitCommand(args);
  if (EqualsIgnoreCase(sub, "show")) {
    out << profile_.ToText();
    return Status::OK();
  }
  if (EqualsIgnoreCase(sub, "clear")) {
    profile_ = prefs::Profile();
    return RebuildGraph();  // drops graph_ and invalidates cached plans
  }
  if (EqualsIgnoreCase(sub, "add")) {
    CQP_ASSIGN_OR_RETURN(prefs::Profile parsed, prefs::Profile::Parse(rest));
    for (const prefs::AtomicSelection& p : parsed.selections()) {
      CQP_RETURN_IF_ERROR(profile_.AddSelection(p));
    }
    for (const prefs::AtomicJoin& p : parsed.joins()) {
      CQP_RETURN_IF_ERROR(profile_.AddJoin(p));
    }
    return RebuildGraph();
  }
  if (EqualsIgnoreCase(sub, "load")) {
    std::ifstream in(rest);
    if (!in) return NotFound("cannot open " + rest);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    CQP_ASSIGN_OR_RETURN(profile_, prefs::Profile::Parse(buffer.str()));
    return RebuildGraph();
  }
  return InvalidArgument(".profile expects show|clear|add|load");
}

Status CqpShell::HandleConstraints(const std::string& args,
                                   std::ostream& out) {
  if (db_ == nullptr) {
    return FailedPrecondition("no database loaded (.gen or .load first)");
  }
  auto [sub, rest] = SplitCommand(args);
  if (sub.empty()) {
    const catalog::ConstraintSet& constraints = db_->constraints();
    if (constraints.empty()) {
      out << "no constraints (try .constraints derive)\n";
    } else {
      out << constraints.ToText();
    }
    return Status::OK();
  }
  if (EqualsIgnoreCase(sub, "derive")) {
    CQP_ASSIGN_OR_RETURN(catalog::ConstraintSet derived,
                         storage::DeriveConstraints(*db_));
    // Derived constraints hold by construction; the check guards against
    // estimator-statistics drift (it would indicate a bug, not bad data).
    CQP_RETURN_IF_ERROR(storage::CheckConstraints(*db_, derived));
    out << StrFormat("derived %zu keys, %zu domains, %zu implications\n",
                     derived.keys().size(), derived.domains().size(),
                     derived.implications().size());
    db_->SetConstraints(std::move(derived));
    return Status::OK();
  }
  if (EqualsIgnoreCase(sub, "load")) {
    std::ifstream in(rest);
    if (!in) return NotFound("cannot open " + rest);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    CQP_ASSIGN_OR_RETURN(catalog::ConstraintSet parsed,
                         catalog::ParseConstraintSet(buffer.str()));
    // A constraint the data violates would make the rewrite passes unsound
    // (they drop conjuncts the constraints prove redundant) — refuse it.
    CQP_RETURN_IF_ERROR(storage::CheckConstraints(*db_, parsed));
    out << StrFormat("loaded %zu constraints\n", parsed.size());
    db_->SetConstraints(std::move(parsed));
    return Status::OK();
  }
  if (EqualsIgnoreCase(sub, "clear")) {
    db_->SetConstraints(catalog::ConstraintSet());
    return Status::OK();
  }
  return InvalidArgument(".constraints expects derive|load|clear or no args");
}

Status CqpShell::HandleProblem(const std::string& args) {
  auto [number_text, rest] = SplitCommand(args);
  int64_t number = 0;
  if (!ParseIntStrict(number_text, &number)) {
    return InvalidArgument(".problem expects a problem number 1-6");
  }
  CQP_ASSIGN_OR_RETURN(auto kv, ParseKeyValues(rest));
  auto get = [&](const char* key, double fallback) {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  };
  cqp::ProblemSpec spec;
  switch (number) {
    case 1:
      spec = cqp::ProblemSpec::Problem1(get("smin", 1), get("smax", 100));
      break;
    case 2:
      spec = cqp::ProblemSpec::Problem2(get("cmax", 400));
      break;
    case 3:
      spec = cqp::ProblemSpec::Problem3(get("cmax", 400), get("smin", 1),
                                        get("smax", 100));
      break;
    case 4:
      spec = cqp::ProblemSpec::Problem4(get("dmin", 0.8));
      break;
    case 5:
      spec = cqp::ProblemSpec::Problem5(get("dmin", 0.8), get("smin", 1),
                                        get("smax", 100));
      break;
    case 6:
      spec = cqp::ProblemSpec::Problem6(get("smin", 1), get("smax", 100));
      break;
    default:
      return InvalidArgument("problem number must be 1-6");
  }
  CQP_RETURN_IF_ERROR(spec.Validate());
  problem_ = spec;
  return Status::OK();
}

SearchBudget CqpShell::MakeBudget() const {
  SearchBudget budget;
  if (budget_deadline_ms_ > 0) {
    budget = SearchBudget::AfterMillis(budget_deadline_ms_);
  }
  budget.max_expansions = budget_states_;
  budget.max_memory_bytes =
      static_cast<size_t>(budget_memory_mb_ * 1024.0 * 1024.0);
  return budget;
}

Status CqpShell::HandleBudget(const std::string& args, std::ostream& out) {
  if (args.empty()) {
    out << "budget: " << MakeBudget().ToString() << "\n";
    return Status::OK();
  }
  if (EqualsIgnoreCase(args, "off")) {
    budget_deadline_ms_ = 0;
    budget_states_ = 0;
    budget_memory_mb_ = 0;
    return Status::OK();
  }
  CQP_ASSIGN_OR_RETURN(auto kv, ParseKeyValues(args));
  for (const auto& [key, value] : kv) {
    if (value < 0) return InvalidArgument("budget values must be >= 0");
    if (key == "deadline") {
      budget_deadline_ms_ = value;
    } else if (key == "states") {
      budget_states_ = static_cast<uint64_t>(value);
    } else if (key == "memory") {
      budget_memory_mb_ = value;
    } else {
      return InvalidArgument(
          ".budget expects deadline=MS states=N memory=MB, got " + key);
    }
  }
  out << "budget: " << MakeBudget().ToString() << "\n";
  return Status::OK();
}

Status CqpShell::HandleFailpoints(const std::string& args, std::ostream& out) {
  if (EqualsIgnoreCase(args, "off")) {
    failpoint::Reset();
    return Status::OK();
  }
  if (!args.empty()) {
    CQP_RETURN_IF_ERROR(failpoint::Configure(args));
  }
  std::vector<failpoint::FailpointInfo> armed = failpoint::List();
  if (armed.empty()) {
    out << "no failpoints armed\n";
    return Status::OK();
  }
  for (const failpoint::FailpointInfo& fp : armed) {
    out << StrFormat("%-24s p=%.2f seed=%llu hits=%llu fired=%llu\n",
                     fp.name.c_str(), fp.probability,
                     static_cast<unsigned long long>(fp.seed),
                     static_cast<unsigned long long>(fp.hits),
                     static_cast<unsigned long long>(fp.triggers));
  }
  return Status::OK();
}

Status CqpShell::RebuildGraph() {
  graph_.reset();
  // Any profile or database change invalidates every prepared plan: bump
  // the session version (stale keys can no longer match) and drop the
  // entries eagerly so their PreparedSpace memory is freed now.
  ++profile_version_;
  plan_cache_.InvalidateProfile("shell");
  if (db_ == nullptr || profile_.empty()) return Status::OK();
  CQP_ASSIGN_OR_RETURN(
      prefs::PersonalizationGraph graph,
      prefs::PersonalizationGraph::Build(profile_, *db_));
  graph_ = std::make_unique<prefs::PersonalizationGraph>(std::move(graph));
  if (profile_store_ != nullptr) {
    // The embedded server serves this profile as "default": keep its store
    // (and through it the eval caches) in step with .profile edits.
    CQP_RETURN_IF_ERROR(profile_store_->Put("default", profile_));
  }
  return Status::OK();
}

Status CqpShell::HandleServe(const std::string& args, std::ostream& out) {
  if (EqualsIgnoreCase(args, "stop")) {
    if (server_ == nullptr) return FailedPrecondition("no server running");
    server_->Stop();
    out << "server stopped; " << server_->stats().requests_total()
        << " requests served\n";
    server_.reset();
    profile_store_.reset();
    return Status::OK();
  }
  if (server_ != nullptr) {
    return AlreadyExists("server already running on port " +
                         std::to_string(server_->port()));
  }
  if (db_ == nullptr) {
    return FailedPrecondition("no database loaded (.gen or .load first)");
  }
  if (profile_.empty()) {
    return FailedPrecondition("empty profile (.profile add first)");
  }
  server::ServerOptions options;
  if (!args.empty()) {
    int64_t port = 0;
    if (!ParseIntStrict(args, &port) || port < 0 || port > 65535) {
      return InvalidArgument(".serve expects a port in [0, 65535] or 'stop'");
    }
    options.port = static_cast<int>(port);
  }
  options.default_problem = problem_;
  options.default_algorithm = algorithm_;
  options.default_max_k = space_options_.max_k;
  auto store = std::make_unique<server::ProfileStore>(db_.get());
  CQP_RETURN_IF_ERROR(store->Put("default", profile_));
  auto server = std::make_unique<server::Server>(db_.get(), store.get(),
                                                 std::move(options));
  CQP_RETURN_IF_ERROR(server->Start());
  out << "serving on 127.0.0.1:" << server->port()
      << " (profile 'default'; .serve stop to halt)\n";
  profile_store_ = std::move(store);
  server_ = std::move(server);
  return Status::OK();
}

Status CqpShell::HandleStats(std::ostream& out) {
  if (client_.connected()) {
    server::WireRequest request;
    request.op = server::RequestOp::kStats;
    CQP_ASSIGN_OR_RETURN(server::WireResponse response, client_.Call(request));
    if (!response.ok()) return response.status;
    out << response.extra.Dump() << "\n";
    return Status::OK();
  }
  if (server_ != nullptr) {
    out << server_->StatsJson().Dump() << "\n";
    return Status::OK();
  }
  return FailedPrecondition("no server (.serve or .connect first)");
}

Status CqpShell::HandleConnect(const std::string& args, std::ostream& out) {
  size_t colon = args.rfind(':');
  if (colon == std::string::npos) {
    return InvalidArgument(".connect expects host:port");
  }
  std::string host = args.substr(0, colon);
  int64_t port = 0;
  if (!ParseIntStrict(args.substr(colon + 1), &port) || port <= 0 ||
      port > 65535) {
    return InvalidArgument("bad port in '" + args + "'");
  }
  CQP_RETURN_IF_ERROR(client_.Connect(host, static_cast<int>(port)));
  server::WireRequest ping;
  ping.op = server::RequestOp::kPing;
  CQP_ASSIGN_OR_RETURN(server::WireResponse pong, client_.Call(ping));
  if (!pong.ok()) return pong.status;
  out << "connected to " << host << ":" << port
      << "; queries now run remotely (.disconnect to go local)\n";
  return Status::OK();
}

Status CqpShell::HandleRemoteQuery(const std::string& sql, std::ostream& out) {
  server::WireRequest request;
  request.op = server::RequestOp::kPersonalize;
  request.personalize.sql = sql;
  request.personalize.algorithm = algorithm_;
  request.personalize.deadline_ms = budget_deadline_ms_;
  request.personalize.max_expansions = budget_states_;
  request.personalize.max_memory_mb = budget_memory_mb_;
  request.personalize.max_k = space_options_.max_k;
  request.personalize.problem = problem_;
  CQP_ASSIGN_OR_RETURN(server::WireResponse response, client_.Call(request));
  if (!response.ok()) return response.status;
  if (!response.personalize.has_value()) {
    return Internal("server sent no personalize result");
  }
  const server::PersonalizeResultPayload& r = *response.personalize;
  if (r.degraded) {
    out << "degraded answer (rung: " << r.rung << ")\n";
    for (const std::string& attempt : r.attempts) {
      out << "  " << attempt << "\n";
    }
  }
  if (!r.feasible) {
    out << "no feasible personalized query; the original query applies\n";
  } else {
    out << StrFormat(
        "estimates: doi=%.3f cost=%.1fms size=%.1f  (%llu states, %.2f ms search, %.2f ms server)\n",
        r.doi, r.cost_ms, r.size,
        static_cast<unsigned long long>(r.states_examined), r.search_wall_ms,
        r.server_ms);
  }
  out << "sql:\n" << r.final_sql << "\n";
  return Status::OK();
}

Status CqpShell::HandleBatch(const std::string& args, std::ostream& out) {
  if (db_ == nullptr) {
    return FailedPrecondition("no database loaded (.gen or .load first)");
  }
  if (graph_ == nullptr) {
    return FailedPrecondition("empty profile (.profile add first)");
  }
  int64_t n = 8;
  int64_t threads = 0;
  std::string rest = args;
  for (;;) {
    auto [token, tail] = SplitCommand(rest);
    size_t eq = token.find('=');
    if (eq == std::string::npos) break;
    std::string key = ToLower(token.substr(0, eq));
    int64_t value = 0;
    if (!ParseIntStrict(token.substr(eq + 1), &value)) {
      return InvalidArgument(".batch expects n=N threads=T, got " + token);
    }
    if (key == "n") {
      n = value;
    } else if (key == "threads") {
      threads = value;
    } else {
      return InvalidArgument(".batch knows n= and threads=, got " + key);
    }
    rest = tail;
  }
  if (rest.empty()) return InvalidArgument(".batch [n=N] [threads=T] QUERY");
  if (n <= 0 || n > 100000) return InvalidArgument("n must be in [1, 1e5]");
  if (threads < 0 || threads > 256) {
    return InvalidArgument("threads must be in [0, 256] (0 = hardware)");
  }

  construct::Personalizer personalizer(db_.get(), graph_.get());
  // Every copy personalizes the same query under the same profile, so one
  // shared memo is valid for the whole batch.
  estimation::EvalCache cache;
  construct::PersonalizeRequest request;
  request.sql = rest;
  request.problem = problem_;
  request.algorithm = algorithm_;
  request.budget = MakeBudget();
  request.space_options = space_options_;
  request.eval_cache = &cache;
  request.plan_cache = &plan_cache_;
  request.profile_id = "shell";
  request.profile_version = profile_version_;
  std::vector<construct::PersonalizeRequest> requests(
      static_cast<size_t>(n), request);
  construct::BatchOptions options;
  options.num_threads = static_cast<size_t>(threads);
  construct::BatchResult batch =
      personalizer.PersonalizeBatch(requests, options);

  size_t resolved_threads =
      threads > 0 ? static_cast<size_t>(threads)
                  : std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> latencies = batch.latencies_ms;
  std::sort(latencies.begin(), latencies.end());
  auto percentile = [&](double p) {
    if (latencies.empty()) return 0.0;
    size_t idx = static_cast<size_t>(p * static_cast<double>(latencies.size()));
    return latencies[std::min(idx, latencies.size() - 1)];
  };
  double qps = batch.wall_ms > 0.0
                   ? 1000.0 * static_cast<double>(n) / batch.wall_ms
                   : 0.0;
  out << StrFormat("%lld requests on %zu threads: %zu ok, %zu degraded\n",
                   static_cast<long long>(n), resolved_threads,
                   batch.ok_count(), batch.degraded);
  out << StrFormat("wall %.1f ms (%.1f q/s), latency p50=%.2f ms p99=%.2f ms\n",
                   batch.wall_ms, qps, percentile(0.50), percentile(0.99));
  uint64_t lookups = batch.eval_cache_hits + batch.eval_cache_misses;
  out << StrFormat(
      "eval cache: %llu hits / %llu lookups (%.0f%% hit rate), %zu entries\n",
      static_cast<unsigned long long>(batch.eval_cache_hits),
      static_cast<unsigned long long>(lookups),
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(batch.eval_cache_hits) /
                         static_cast<double>(lookups),
      cache.size());
  out << StrFormat("plan cache: %llu of %lld prepares served from cache\n",
                   static_cast<unsigned long long>(batch.plan_cache_hits),
                   static_cast<long long>(n));
  for (const auto& result : batch.results) {
    if (!result.ok()) {
      out << "first error: " << result.status().ToString() << "\n";
      break;
    }
  }
  return Status::OK();
}

Status CqpShell::HandlePlans(const std::string& args, std::ostream& out) {
  if (EqualsIgnoreCase(args, "clear")) {
    plan_cache_.Clear();
    out << "plan cache cleared\n";
    return Status::OK();
  }
  if (!args.empty()) return InvalidArgument(".plans takes no argument or 'clear'");
  construct::PlanCacheStats stats = plan_cache_.stats();
  out << StrFormat(
      "plan cache: %llu hits / %llu lookups (%.0f%% hit rate)\n",
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.hits + stats.misses),
      100.0 * stats.hit_rate());
  out << StrFormat(
      "%zu entries, %llu evictions, %llu invalidations\n", stats.entries,
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.invalidations));
  for (const construct::PlanCache::EntryInfo& entry : plan_cache_.Entries()) {
    out << StrFormat("  fp=%016llx v%llu K=%zu\n",
                     static_cast<unsigned long long>(entry.key.query_fingerprint),
                     static_cast<unsigned long long>(entry.key.profile_version),
                     entry.k);
  }
  return Status::OK();
}

Status CqpShell::HandleRawSql(const std::string& sql, std::ostream& out) {
  if (db_ == nullptr) return FailedPrecondition("no database loaded");
  exec::Executor executor(db_.get());
  exec::ExecStats stats;
  exec::RowSet rows;
  auto select = sql::ParseSelect(sql);
  if (select.ok()) {
    CQP_ASSIGN_OR_RETURN(rows, executor.Execute(*select, &stats));
  } else {
    // Maybe it is a personalized-query statement (the §4.2 shape that
    // .explain prints) — those execute too.
    auto union_group = sql::ParseUnionGroup(sql);
    if (!union_group.ok()) return select.status();  // original diagnostics
    CQP_ASSIGN_OR_RETURN(rows,
                         executor.ExecuteUnionGroup(*union_group, &stats));
  }
  out << rows.ToString(20);
  out << StrFormat("(%zu rows, %llu blocks, simulated %.1f ms)\n",
                   rows.row_count(),
                   static_cast<unsigned long long>(stats.blocks_read),
                   stats.SimulatedMillis(exec::CostModelParams()));
  return Status::OK();
}

Status CqpShell::HandleQuery(const std::string& sql, bool execute,
                             std::ostream& out) {
  if (db_ == nullptr) {
    return FailedPrecondition("no database loaded (.gen or .load first)");
  }
  if (graph_ == nullptr) {
    out << "note: empty profile; running the query unpersonalized\n";
    return HandleRawSql(sql, out);
  }
  construct::Personalizer personalizer(db_.get(), graph_.get());
  construct::PersonalizeRequest request;
  request.sql = sql;
  request.problem = problem_;
  request.algorithm = algorithm_;
  request.budget = MakeBudget();
  request.space_options = space_options_;
  request.plan_cache = &plan_cache_;
  request.profile_id = "shell";
  request.profile_version = profile_version_;
  CQP_ASSIGN_OR_RETURN(construct::PersonalizeResult result,
                       personalizer.Personalize(request));

  out << "preference space: K=" << result.space->K()
      << (result.plan_cache_hit ? " (plan cache hit)" : "") << "\n";
  if (result.degraded()) {
    out << "degraded answer (rung: "
        << construct::FallbackRungName(result.rung) << ")\n";
    for (const std::string& attempt : result.attempts) {
      out << "  " << attempt << "\n";
    }
  }
  if (!result.solution.feasible) {
    out << "no feasible personalized query; the original query applies\n";
  } else {
    out << "chosen preferences:\n";
    for (int32_t i : result.solution.chosen) {
      const auto& p = result.space->prefs[static_cast<size_t>(i)];
      out << StrFormat("  doi=%.3f cost=%.1fms  %s\n", p.doi, p.cost_ms,
                       p.pref.ConditionString().c_str());
    }
    out << StrFormat("estimates: doi=%.3f cost=%.1fms size=%.1f  (%llu states, %.2f ms search)\n",
                     result.solution.params.doi,
                     result.solution.params.cost_ms,
                     result.solution.params.size,
                     static_cast<unsigned long long>(
                         result.metrics.states_examined),
                     result.metrics.wall_ms);
  }
  const rewrite::RewriteStats& rw = result.personalized.rewrite;
  if (rw.changed() || result.space->constraint_pruned > 0) {
    out << StrFormat(
        "rewrite: %llu conjuncts dropped, %llu branches subsumed, "
        "%llu candidates pruned\n",
        static_cast<unsigned long long>(rw.conjuncts_dropped),
        static_cast<unsigned long long>(rw.branches_subsumed),
        static_cast<unsigned long long>(result.space->constraint_pruned));
  }
  if (!execute && rw.changed()) {
    // Rebuild the same chosen set unoptimized; the served path never
    // renders this text.
    construct::BuildOptions unoptimized = request.build_options;
    unoptimized.optimize = false;
    CQP_ASSIGN_OR_RETURN(
        construct::PersonalizedQuery before,
        construct::BuildPersonalizedQuery(
            *db_, result.space->query, result.space->prefs,
            result.solution.feasible ? result.solution.chosen : IndexSet(),
            unoptimized));
    out << "sql (before rewrite):\n" << before.ToSql() << "\n";
  }
  out << "sql:\n" << result.final_sql << "\n";
  if (!execute) return Status::OK();

  exec::ExecStats stats;
  CQP_ASSIGN_OR_RETURN(exec::PersonalizedResultSet rows,
                       personalizer.Execute(result, &stats));
  size_t shown = 0;
  for (const exec::PersonalizedRow& row : rows.rows) {
    if (shown++ >= 20) {
      out << StrFormat("  ... (%zu more)\n", rows.rows.size() - 20);
      break;
    }
    out << StrFormat("  doi=%.3f  %s\n", row.doi, row.row.ToString().c_str());
  }
  out << StrFormat("(%zu rows, %llu blocks, simulated %.1f ms)\n",
                   rows.rows.size(),
                   static_cast<unsigned long long>(stats.blocks_read),
                   stats.SimulatedMillis(exec::CostModelParams()));
  return Status::OK();
}

}  // namespace cqp::shell
