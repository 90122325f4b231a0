#include "lint/rules.hpp"

#include <algorithm>
#include <initializer_list>
#include <set>
#include <stdexcept>

#include "lint/model.hpp"

namespace rcp::lint {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool matches_any_prefix(const std::string& path,
                        const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& p) { return starts_with(path, p); });
}

/// "sys/*" matches any header under sys/; otherwise exact match.
bool header_matches(const std::string& target, const std::string& pattern) {
  if (pattern.size() >= 2 && pattern.compare(pattern.size() - 2, 2, "/*") == 0) {
    return starts_with(target, pattern.substr(0, pattern.size() - 1));
  }
  return target == pattern;
}

std::vector<std::string> get_array(const TomlTable& t, const std::string& key) {
  const auto it = t.find(key);
  if (it == t.end()) {
    return {};
  }
  if (it->second.kind == TomlValue::Kind::string) {
    return {it->second.str};
  }
  if (it->second.kind != TomlValue::Kind::array) {
    throw std::runtime_error("rules: key `" + key + "` must be an array");
  }
  return it->second.array;
}

const TomlTable* get_table(const TomlDoc& doc, const std::string& name) {
  const auto it = doc.find(name);
  return it == doc.end() || it->second.empty() ? nullptr : &it->second.front();
}

/// A typoed key must never silently disable a rule: every key in a section
/// has to be one the engine actually reads.
void require_keys(const TomlTable& t, const std::string& section,
                  std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : t) {
    if (std::none_of(allowed.begin(), allowed.end(),
                     [&](const char* a) { return key == a; })) {
      throw std::runtime_error("rules: unknown key `" + key + "` in [" +
                               section + "]");
    }
  }
}

/// Lines occupied by #include directives: token rules skip them so that
/// `#include <new>` or `#include <ctime>` never trips a token ban (include
/// hygiene belongs to the layer/os-header rules).
std::vector<bool> include_lines(const ScannedFile& f) {
  std::vector<bool> is_include(f.code.size() + 1, false);
  for (const Include& inc : f.includes) {
    if (inc.line < is_include.size()) {
      is_include[inc.line] = true;
    }
  }
  return is_include;
}

/// Index of the layer owning `path`, or npos.
std::size_t layer_of(const std::string& path,
                     const std::vector<LayerCfg>& layers) {
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (matches_any_prefix(path, layers[i].paths)) {
      return i;
    }
  }
  return std::string::npos;
}

void check_layering(const ScannedFile& f, const Config& cfg,
                    std::vector<Diag>& out) {
  const std::size_t self = layer_of(f.path, cfg.layers);
  if (self == std::string::npos) {
    return;  // tests/bench/examples: unconstrained edges
  }
  const LayerCfg& layer = cfg.layers[self];
  for (const Include& inc : f.includes) {
    if (inc.angled) {
      continue;  // system headers are the os-header rule's business
    }
    // Quoted includes in layered code are rooted at src/.
    const std::size_t target = layer_of("src/" + inc.target, cfg.layers);
    if (target == std::string::npos) {
      out.push_back(Diag{f.path, inc.line, "layer",
                         "include \"" + inc.target +
                             "\" does not resolve to a repo layer; layered "
                             "code may only include layer headers"});
      continue;
    }
    if (target == self) {
      continue;
    }
    const std::string& dep = cfg.layers[target].name;
    if (std::find(layer.deps.begin(), layer.deps.end(), dep) ==
        layer.deps.end()) {
      out.push_back(Diag{f.path, inc.line, "layer",
                         "layer `" + layer.name + "` may not include \"" +
                             inc.target + "\" from layer `" + dep + "`"});
    }
  }
}

void check_os_headers(const ScannedFile& f, const Config& cfg,
                      std::vector<Diag>& out) {
  if (matches_any_prefix(f.path, cfg.os_headers.allow_paths)) {
    return;
  }
  for (const Include& inc : f.includes) {
    for (const std::string& pattern : cfg.os_headers.banned) {
      if (header_matches(inc.target, pattern)) {
        out.push_back(Diag{f.path, inc.line, "os-header",
                           "OS/concurrency header <" + inc.target +
                               "> is banned outside the net/runtime layers "
                               "(sans-io cores, see docs/LINT.md)"});
        break;
      }
    }
  }
}

void check_os_exclusive(const ScannedFile& f, const Config& cfg,
                        std::vector<Diag>& out) {
  for (const OsExclusiveCfg& rule : cfg.os_exclusive) {
    if (matches_any_prefix(f.path, rule.allow)) {
      continue;
    }
    for (const Include& inc : f.includes) {
      if (inc.target == rule.header) {
        std::string owners;
        for (const std::string& a : rule.allow) {
          owners += owners.empty() ? a : ", " + a;
        }
        out.push_back(Diag{f.path, inc.line, "os-exclusive",
                           "header <" + rule.header + "> is " +
                               (owners.empty() ? "banned in every file"
                                               : "exclusive to " + owners) +
                               "; program against the backend-hiding "
                               "interface instead (docs/LINT.md)"});
      }
    }
  }
}

void check_determinism(const ScannedFile& f, const Config& cfg,
                       std::vector<Diag>& out) {
  if (matches_any_prefix(f.path, cfg.determinism.allow_paths)) {
    return;
  }
  const std::vector<bool> skip = include_lines(f);
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (skip[i + 1]) {
      continue;
    }
    for (const std::string& token : cfg.determinism.tokens) {
      if (line_has_token(f.code[i], token, /*as_call=*/false,
                         /*member_only=*/false)) {
        out.push_back(Diag{f.path, i + 1, "determinism",
                           "non-deterministic construct `" + token +
                               "`; all randomness must flow from the seeded "
                               "rcp::Rng (common/rng.hpp)"});
      }
    }
    for (const std::string& call : cfg.determinism.calls) {
      if (line_has_token(f.code[i], call, /*as_call=*/true,
                         /*member_only=*/false)) {
        out.push_back(Diag{f.path, i + 1, "determinism",
                           "call to `" + call +
                               "()` breaks seed-determinism; derive values "
                               "from the trial seed instead"});
      }
    }
  }
  // determinism-strict: in the strict paths even the report-only clocks
  // are out — a fuzz plan's execution is a pure function of the plan
  // bytes, so nothing in the subsystem may observe time at all.
  if (!matches_any_prefix(f.path, cfg.determinism.strict_paths)) {
    return;
  }
  for (const Include& inc : f.includes) {
    for (const std::string& header : cfg.determinism.strict_headers) {
      if (inc.target == header) {
        out.push_back(Diag{f.path, inc.line, "determinism-strict",
                           "header <" + header +
                               "> is banned in seed-deterministic paths; "
                               "plan execution must be a pure function of "
                               "the plan bytes (docs/FUZZ.md)"});
      }
    }
  }
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (skip[i + 1]) {
      continue;
    }
    for (const std::string& token : cfg.determinism.strict_tokens) {
      if (line_has_token(f.code[i], token, /*as_call=*/false,
                         /*member_only=*/false)) {
        out.push_back(Diag{f.path, i + 1, "determinism-strict",
                           "`" + token +
                               "` in a seed-deterministic path; even "
                               "report-only clocks are banned here "
                               "(docs/FUZZ.md)"});
      }
    }
  }
}

void check_allocation(const ScannedFile& f, const Config& cfg,
                      std::vector<Diag>& out) {
  if (!matches_any_prefix(f.path, cfg.allocation.files)) {
    return;
  }
  const std::vector<bool> skip = include_lines(f);
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (skip[i + 1]) {
      continue;
    }
    const std::string& code = f.code[i];
    if (cfg.allocation.ban_new &&
        line_has_token(code, "new", /*as_call=*/false, /*member_only=*/false)) {
      out.push_back(Diag{f.path, i + 1, "hot-alloc",
                         "`new` in an allocation-contract file (the sim hot "
                         "path must stay allocation-free, docs/PERF.md)"});
    }
    // alloc_calls are matched as bare tokens (not call position) so that
    // template spellings like make_unique<T>(...) are caught too.
    for (const std::string& call : cfg.allocation.alloc_calls) {
      if (line_has_token(code, call, /*as_call=*/false, /*member_only=*/false)) {
        out.push_back(Diag{f.path, i + 1, "hot-alloc",
                           "allocator call `" + call +
                               "()` in an allocation-contract file"});
      }
    }
    for (const std::string& call : cfg.allocation.growth_calls) {
      if (line_has_token(code, call, /*as_call=*/true, /*member_only=*/true)) {
        out.push_back(Diag{f.path, i + 1, "hot-alloc",
                           "growth-capable container call `." + call +
                               "()` in an allocation-contract file"});
      }
    }
  }
}

void check_threshold(const ScannedFile& f, const Config& cfg,
                     std::vector<Diag>& out) {
  if (!matches_any_prefix(f.path, cfg.threshold.paths) ||
      matches_any_prefix(f.path, cfg.threshold.exempt)) {
    return;
  }
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (std::size_t p = 0; p < cfg.threshold.patterns.size(); ++p) {
      if (std::regex_search(f.code[i], cfg.threshold.patterns[p])) {
        out.push_back(
            Diag{f.path, i + 1, "threshold",
                 "inline quorum arithmetic matching /" +
                     cfg.threshold.pattern_text[p] +
                     "/; the paper's threshold predicates live in "
                     "core/params.hpp (ConsensusParams accessors)"});
        break;  // one threshold diagnostic per line is enough
      }
    }
  }
}

}  // namespace

Config load_config(const TomlDoc& doc) {
  Config cfg;
  // Unknown sections and stray top-level keys are hard errors, for the
  // same reason unknown keys are: a typo must not silently turn a rule off.
  static const std::set<std::string> kSections = {
      "",           "run",         "layer",         "os_headers",
      "os_exclusive", "determinism", "allocation",  "threshold",
      "thread_safety", "include_graph", "resilience", "protocol",
  };
  for (const auto& [name, tables] : doc) {
    if (kSections.count(name) == 0) {
      throw std::runtime_error("rules: unknown section [" + name + "]");
    }
  }
  if (const TomlTable* root = get_table(doc, "")) {
    if (!root->empty()) {
      throw std::runtime_error("rules: top-level key `" +
                               root->begin()->first +
                               "` outside any section");
    }
  }
  if (const TomlTable* run = get_table(doc, "run")) {
    require_keys(*run, "run", {"roots", "exclude", "extensions"});
    cfg.run.roots = get_array(*run, "roots");
    cfg.run.exclude = get_array(*run, "exclude");
    cfg.run.extensions = get_array(*run, "extensions");
  }
  if (cfg.run.extensions.empty()) {
    cfg.run.extensions = {".hpp", ".cpp", ".h"};
  }
  const auto layer_it = doc.find("layer");
  if (layer_it == doc.end()) {
    throw std::runtime_error("rules: at least one [[layer]] is required");
  }
  for (const TomlTable& t : layer_it->second) {
    LayerCfg layer;
    require_keys(t, "layer", {"name", "paths", "deps"});
    const auto name = t.find("name");
    if (name == t.end() || name->second.kind != TomlValue::Kind::string) {
      throw std::runtime_error("rules: [[layer]] needs a string `name`");
    }
    layer.name = name->second.str;
    layer.paths = get_array(t, "paths");
    layer.deps = get_array(t, "deps");
    cfg.layers.push_back(std::move(layer));
  }
  for (const LayerCfg& layer : cfg.layers) {
    for (const std::string& dep : layer.deps) {
      if (std::none_of(cfg.layers.begin(), cfg.layers.end(),
                       [&](const LayerCfg& l) { return l.name == dep; })) {
        throw std::runtime_error("rules: layer `" + layer.name +
                                 "` depends on unknown layer `" + dep + "`");
      }
    }
  }
  if (const TomlTable* t = get_table(doc, "os_headers")) {
    require_keys(*t, "os_headers", {"banned", "allow_paths"});
    cfg.os_headers.banned = get_array(*t, "banned");
    cfg.os_headers.allow_paths = get_array(*t, "allow_paths");
  }
  const auto excl_it = doc.find("os_exclusive");
  if (excl_it != doc.end()) {
    for (const TomlTable& t : excl_it->second) {
      OsExclusiveCfg rule;
      require_keys(t, "os_exclusive", {"header", "allow"});
      const auto header = t.find("header");
      if (header == t.end() ||
          header->second.kind != TomlValue::Kind::string) {
        throw std::runtime_error(
            "rules: [[os_exclusive]] needs a string `header`");
      }
      rule.header = header->second.str;
      rule.allow = get_array(t, "allow");
      cfg.os_exclusive.push_back(std::move(rule));
    }
  }
  if (const TomlTable* t = get_table(doc, "determinism")) {
    require_keys(*t, "determinism",
                 {"banned_tokens", "banned_calls", "allow_paths",
                  "strict_paths", "strict_tokens", "strict_headers"});
    cfg.determinism.tokens = get_array(*t, "banned_tokens");
    cfg.determinism.calls = get_array(*t, "banned_calls");
    cfg.determinism.allow_paths = get_array(*t, "allow_paths");
    cfg.determinism.strict_paths = get_array(*t, "strict_paths");
    cfg.determinism.strict_tokens = get_array(*t, "strict_tokens");
    cfg.determinism.strict_headers = get_array(*t, "strict_headers");
  }
  if (const TomlTable* t = get_table(doc, "allocation")) {
    require_keys(*t, "allocation",
                 {"files", "alloc_calls", "growth_calls", "ban_new"});
    cfg.allocation.files = get_array(*t, "files");
    cfg.allocation.alloc_calls = get_array(*t, "alloc_calls");
    cfg.allocation.growth_calls = get_array(*t, "growth_calls");
    const auto ban = t->find("ban_new");
    cfg.allocation.ban_new =
        ban == t->end() || ban->second.kind != TomlValue::Kind::boolean ||
        ban->second.boolean;
  }
  if (const TomlTable* t = get_table(doc, "threshold")) {
    require_keys(*t, "threshold", {"paths", "exempt", "patterns"});
    cfg.threshold.paths = get_array(*t, "paths");
    cfg.threshold.exempt = get_array(*t, "exempt");
    cfg.threshold.pattern_text = get_array(*t, "patterns");
    for (const std::string& pattern : cfg.threshold.pattern_text) {
      try {
        cfg.threshold.patterns.emplace_back(pattern);
      } catch (const std::regex_error&) {
        throw std::runtime_error("rules: bad threshold regex: " + pattern);
      }
    }
  }
  if (const TomlTable* t = get_table(doc, "thread_safety")) {
    require_keys(*t, "thread_safety", {"paths"});
    cfg.thread_safety.paths = get_array(*t, "paths");
  }
  if (const TomlTable* t = get_table(doc, "include_graph")) {
    require_keys(*t, "include_graph", {"public_paths", "unused_exempt"});
    cfg.include_graph.public_paths = get_array(*t, "public_paths");
    cfg.include_graph.unused_exempt = get_array(*t, "unused_exempt");
  }
  if (const TomlTable* t = get_table(doc, "resilience")) {
    require_keys(*t, "resilience", {"paths"});
    cfg.resilience.paths = get_array(*t, "paths");
  }
  const auto proto_it = doc.find("protocol");
  if (proto_it != doc.end()) {
    for (const TomlTable& t : proto_it->second) {
      require_keys(t, "protocol", {"file", "model"});
      ProtocolCfg p;
      const auto file = t.find("file");
      const auto model = t.find("model");
      if (file == t.end() ||
          file->second.kind != TomlValue::Kind::string ||
          model == t.end() ||
          model->second.kind != TomlValue::Kind::string) {
        throw std::runtime_error(
            "rules: [[protocol]] needs string `file` and `model`");
      }
      p.file = file->second.str;
      p.model = model->second.str;
      if (p.model != "fail_stop" && p.model != "malicious") {
        throw std::runtime_error("rules: [[protocol]] model must be "
                                 "`fail_stop` or `malicious`, got `" +
                                 p.model + "`");
      }
      cfg.resilience.protocols.push_back(std::move(p));
    }
  }
  return cfg;
}

std::vector<Diag> check_file(const ScannedFile& f, const Config& cfg) {
  std::vector<Diag> out;
  check_layering(f, cfg, out);
  check_os_headers(f, cfg, out);
  check_os_exclusive(f, cfg, out);
  check_determinism(f, cfg, out);
  check_allocation(f, cfg, out);
  check_threshold(f, cfg, out);
  return out;
}

namespace {

[[nodiscard]] bool ends_with(const std::string& s, const std::string& tail) {
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

/// Line of the include in `f` that resolves to `target_path`, matched by
/// path suffix (include targets are written without the src/tools root).
[[nodiscard]] std::size_t include_line_for(const FileModel& f,
                                           const std::string& target_path) {
  for (const Include& inc : f.includes) {
    if (!inc.angled && (target_path == inc.target ||
                        ends_with(target_path, "/" + inc.target))) {
      return inc.line;
    }
  }
  return 1;
}

}  // namespace

std::vector<Diag> check_repo(const RepoModel& model, const Config& cfg) {
  std::vector<Diag> out;

  // include-cycle: one diagnostic per strongly connected component,
  // reported at the first member's offending include.
  for (const std::vector<std::size_t>& comp : model.cycles) {
    const FileModel& first = model.files[comp.front()];
    std::string chain;
    for (const std::size_t idx : comp) {
      chain += model.files[idx].path + " -> ";
    }
    chain += first.path;
    std::size_t line = 1;
    for (std::size_t k = 1; k < comp.size(); ++k) {
      const std::size_t l =
          include_line_for(first, model.files[comp[k]].path);
      if (l != 1) {
        line = l;
        break;
      }
    }
    out.push_back(Diag{first.path, line, "include-cycle",
                       "include cycle: " + chain +
                           "; break it with a forward declaration or by "
                           "moving the shared piece down a layer"});
  }

  // layer-closure: layering must hold transitively. Direct violations are
  // the per-file `layer` rule's business; this rule reports a file that
  // reaches a forbidden layer only through intermediaries. One diagnostic
  // per (file, offending layer).
  std::vector<std::set<std::string>> allowed(cfg.layers.size());
  for (std::size_t li = 0; li < cfg.layers.size(); ++li) {
    std::vector<std::string> work{cfg.layers[li].name};
    while (!work.empty()) {
      const std::string name = work.back();
      work.pop_back();
      if (!allowed[li].insert(name).second) {
        continue;
      }
      for (const LayerCfg& l : cfg.layers) {
        if (l.name == name) {
          work.insert(work.end(), l.deps.begin(), l.deps.end());
        }
      }
    }
  }
  for (std::size_t i = 0; i < model.files.size(); ++i) {
    const std::size_t self = layer_of(model.files[i].path, cfg.layers);
    if (self == std::string::npos) {
      continue;
    }
    const std::set<std::size_t> direct(model.files[i].edges.begin(),
                                       model.files[i].edges.end());
    std::set<std::string> reported;
    for (const std::size_t j : model.closure[i]) {
      if (direct.count(j) != 0) {
        continue;
      }
      const std::size_t target = layer_of(model.files[j].path, cfg.layers);
      if (target == std::string::npos || target == self ||
          allowed[self].count(cfg.layers[target].name) != 0) {
        continue;
      }
      if (!reported.insert(cfg.layers[target].name).second) {
        continue;
      }
      // Blame the direct include whose subtree reaches the offender.
      std::size_t via = std::string::npos;
      for (const std::size_t e : model.files[i].edges) {
        if (e == j || std::binary_search(model.closure[e].begin(),
                                         model.closure[e].end(), j)) {
          via = e;
          break;
        }
      }
      const std::size_t line =
          via == std::string::npos
              ? 1
              : include_line_for(model.files[i], model.files[via].path);
      out.push_back(Diag{
          model.files[i].path, line, "layer-closure",
          "layer `" + cfg.layers[self].name + "` transitively reaches " +
              model.files[j].path + " in layer `" +
              cfg.layers[target].name +
              "`; the layering contract holds for the whole include "
              "closure, not just direct edges"});
    }
  }

  // unused-header: a public header no scanned file includes.
  for (std::size_t i = 0; i < model.files.size(); ++i) {
    const std::string& path = model.files[i].path;
    if (model.included_by[i] != 0 || !ends_with(path, ".hpp") ||
        !matches_any_prefix(path, cfg.include_graph.public_paths) ||
        matches_any_prefix(path, cfg.include_graph.unused_exempt)) {
      continue;
    }
    out.push_back(Diag{path, 1, "unused-header",
                       "public header is included by no scanned file; "
                       "dead interface surface (delete it or add it to "
                       "unused_exempt with a reason)"});
  }

  // resilience-bound: declared protocols vs validate(FaultModel::X) sites.
  for (const ProtocolCfg& p : cfg.resilience.protocols) {
    const auto it = model.index.find(p.file);
    if (it == model.index.end()) {
      out.push_back(Diag{p.file, 1, "resilience-bound",
                         "[[protocol]] declares this file but it was not "
                         "scanned; fix the path in tools/lint_rules.toml"});
      continue;
    }
    const FileModel& f = model.files[it->second];
    if (f.validates.empty()) {
      out.push_back(Diag{
          p.file, 1, "resilience-bound",
          "declared as a `" + p.model +
              "` protocol but contains no validate(FaultModel::...) "
              "registration; every protocol must state its fault model "
              "at its registration site"});
      continue;
    }
    for (const ValidateSite& v : f.validates) {
      if (v.model != p.model) {
        out.push_back(Diag{
            p.file, v.line, "resilience-bound",
            "registers FaultModel::" + v.model + " but [[protocol]] "
                "declares `" + p.model + "`; the declared resilience "
                "bound (k <= (n-1)/2 fail-stop, k <= (n-1)/3 malicious) "
                "would not match what validate() enforces"});
      }
    }
  }
  for (const FileModel& f : model.files) {
    if (!matches_any_prefix(f.path, cfg.resilience.paths)) {
      continue;
    }
    const bool declared =
        std::any_of(cfg.resilience.protocols.begin(),
                    cfg.resilience.protocols.end(),
                    [&](const ProtocolCfg& p) { return p.file == f.path; });
    if (declared) {
      continue;
    }
    for (const ValidateSite& v : f.validates) {
      out.push_back(Diag{
          f.path, v.line, "resilience-bound",
          "validate(FaultModel::" + v.model + ") registration site has "
              "no [[protocol]] declaration in the rules file; declare "
              "file and model so the resilience bound stays auditable"});
    }
  }
  return out;
}

SuppressionOutcome apply_suppressions(const ScannedFile& f,
                                      const std::vector<Diag>& raw) {
  SuppressionOutcome result;
  std::vector<bool> used(f.suppressions.size(), false);
  for (std::size_t i = 0; i < f.suppressions.size(); ++i) {
    if (f.suppressions[i].malformed) {
      result.meta.push_back(
          Diag{f.path, f.suppressions[i].line, "bad-suppression",
               "malformed marker; expected `// rcp-lint: allow(rule-id) "
               "reason` with a non-empty reason"});
      used[i] = true;  // don't double-report as unused
    }
  }
  for (const Diag& d : raw) {
    bool suppressed = false;
    for (std::size_t i = 0; i < f.suppressions.size(); ++i) {
      const Suppression& s = f.suppressions[i];
      if (s.malformed || s.rule != d.rule) {
        continue;
      }
      const bool covers = s.whole_file || s.line == d.line ||
                          (s.standalone && s.line + 1 == d.line);
      if (covers) {
        used[i] = true;
        suppressed = true;
      }
    }
    if (suppressed) {
      ++result.honored;
    } else {
      result.remaining.push_back(d);
    }
  }
  for (std::size_t i = 0; i < f.suppressions.size(); ++i) {
    if (!used[i]) {
      result.meta.push_back(
          Diag{f.path, f.suppressions[i].line, "unused-suppression",
               "suppression for `" + f.suppressions[i].rule +
                   "` matched no diagnostic; delete it"});
    }
  }
  return result;
}

}  // namespace rcp::lint
