#include "harness.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace awesim::bench {

namespace {

std::vector<BenchCase>& mutable_registry() {
  static std::vector<BenchCase> cases;
  return cases;
}

obs::json::Value samples_json(const std::vector<double>& samples) {
  using obs::json::Value;
  Value v = Value::object();
  v.set("median", median_of(samples));
  v.set("min", min_of(samples));
  Value arr = Value::array();
  for (double s : samples) arr.push_back(s);
  v.set("samples", std::move(arr));
  return v;
}

}  // namespace

double median_of(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double min_of(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(samples.begin(), samples.end());
}

void register_bench(BenchCase c) {
  if (c.name.empty() || !c.prepare) {
    throw std::invalid_argument(
        "register_bench: a case needs a name and a prepare closure");
  }
  const bool bounded = c.accuracy_bound && std::isfinite(*c.accuracy_bound) &&
                       *c.accuracy_bound >= 0.0;
  if (c.accuracy_metric.empty() ? c.accuracy_bound.has_value() : !bounded) {
    throw std::invalid_argument(
        "register_bench: case '" + c.name +
        "' needs a finite accuracy_bound >= 0 exactly when it names an "
        "accuracy_metric");
  }
  for (const auto& existing : mutable_registry()) {
    if (existing.name == c.name) {
      throw std::invalid_argument("register_bench: duplicate case '" +
                                  c.name + "'");
    }
  }
  mutable_registry().push_back(std::move(c));
}

const std::vector<BenchCase>& registry() { return mutable_registry(); }

BenchResult run_case(const BenchCase& c, const RunOptions& options) {
  BenchResult r;
  r.name = c.name;
  r.paper_ref = c.paper_ref;
  r.accuracy_metric = c.accuracy_metric;
  r.accuracy_bound = c.accuracy_bound;
  r.problem_size = c.problem_size;
  r.repeats = options.repeats > 0 ? options.repeats
                                  : (options.quick ? 3 : 7);

  PreparedCase prepared = c.prepare();
  if (!prepared.run) {
    throw std::invalid_argument("run_case: case '" + c.name +
                                "' prepared no run closure");
  }

  // Warm up allocators/caches outside the measured window, then reset
  // the phase registry so the snapshot below holds true window extrema.
  prepared.run();
  if (prepared.reference) prepared.reference();
  obs::reset_phases();
  r.wall_ms = time_samples_ms(prepared.run, r.repeats, /*warmup=*/0);
  r.phases = obs::snapshot();
  if (prepared.reference) {
    r.sim_ms = time_samples_ms(prepared.reference, r.repeats,
                               /*warmup=*/0);
  }
  if (prepared.accuracy) r.accuracy = prepared.accuracy();
  if (prepared.extra) r.extra = prepared.extra();
  return r;
}

bool within_bound(const BenchResult& r) {
  if (!r.accuracy_bound) return true;
  // A NaN or infinite accuracy fails closed.
  return std::isfinite(r.accuracy) && r.accuracy <= *r.accuracy_bound;
}

double speedup_vs_sim(const BenchResult& r) {
  if (r.sim_ms.empty() || r.wall_ms.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return median_of(r.sim_ms) / median_of(r.wall_ms);
}

obs::json::Value to_json(const std::vector<BenchResult>& results,
                         const RunOptions& options) {
  using obs::json::Value;
  Value doc = Value::object();
  doc.set("schema", kSchemaName);
  doc.set("schema_version", kSchemaVersion);
  doc.set("tier", options.quick ? "quick" : "full");
  doc.set("tracing_compiled_in", obs::tracing_compiled_in());
  Value benches = Value::array();
  for (const auto& r : results) {
    Value b = Value::object();
    b.set("name", r.name);
    b.set("paper_ref", r.paper_ref);
    b.set("problem_size", static_cast<double>(r.problem_size));
    b.set("repeats", r.repeats);
    b.set("wall_ms", samples_json(r.wall_ms));
    // NaN serializes as null (the json writer's contract), so a case
    // without a reference or accuracy closure reads as null downstream.
    b.set("sim_ms", r.sim_ms.empty() ? Value() : samples_json(r.sim_ms));
    b.set("speedup_vs_sim", speedup_vs_sim(r));
    b.set("accuracy", r.accuracy);
    b.set("accuracy_bound",
          r.accuracy_bound ? Value(*r.accuracy_bound) : Value());
    b.set("accuracy_metric", r.accuracy_metric.empty()
                                 ? Value()
                                 : Value(r.accuracy_metric));
    Value phases = Value::array();
    for (const auto& p : r.phases) {
      Value ph = Value::object();
      ph.set("name", p.name);
      ph.set("count", static_cast<double>(p.stats.count));
      ph.set("total_ms", p.stats.total_seconds * 1e3);
      ph.set("min_ms", p.stats.min_seconds * 1e3);
      ph.set("max_ms", p.stats.max_seconds * 1e3);
      phases.push_back(std::move(ph));
    }
    b.set("phases", std::move(phases));
    // Schema v2: always an object; non-finite metrics serialize as null
    // through the writer's NaN contract.
    Value extra = Value::object();
    for (const auto& [key, value] : r.extra) extra.set(key, value);
    b.set("extra", std::move(extra));
    benches.push_back(std::move(b));
  }
  doc.set("benches", std::move(benches));
  return doc;
}

namespace {

using obs::json::Value;

void require(bool ok, const std::string& message,
             std::vector<std::string>* errors) {
  if (!ok) errors->push_back(message);
}

// A metric slot must hold a finite number or null -- never NaN text,
// never a string.
bool finite_or_null(const Value* v) {
  if (v == nullptr) return false;
  if (v->is_null()) return true;
  return v->is_number() && std::isfinite(v->as_number());
}

bool finite_number(const Value* v) {
  return v != nullptr && v->is_number() && std::isfinite(v->as_number());
}

void validate_samples(const Value* v, const std::string& where,
                      std::vector<std::string>* errors) {
  if (v == nullptr || !v->is_object()) {
    errors->push_back(where + ": expected an object");
    return;
  }
  require(finite_number(v->find("median")), where + ".median not finite",
          errors);
  require(finite_number(v->find("min")), where + ".min not finite",
          errors);
  const Value* samples = v->find("samples");
  if (samples == nullptr || !samples->is_array() || samples->size() == 0) {
    errors->push_back(where + ".samples missing or empty");
    return;
  }
  for (std::size_t i = 0; i < samples->size(); ++i) {
    require(finite_number(&samples->at(i)),
            where + ".samples[" + std::to_string(i) + "] not finite",
            errors);
  }
}

void validate_bench(const Value& b, const std::string& where,
                    std::vector<std::string>* errors) {
  if (!b.is_object()) {
    errors->push_back(where + ": expected an object");
    return;
  }
  const Value* name = b.find("name");
  require(name != nullptr && name->is_string() && !name->as_string().empty(),
          where + ".name missing or empty", errors);
  const Value* paper_ref = b.find("paper_ref");
  require(paper_ref != nullptr && paper_ref->is_string(),
          where + ".paper_ref missing", errors);
  require(finite_number(b.find("problem_size")),
          where + ".problem_size not finite", errors);
  require(finite_number(b.find("repeats")), where + ".repeats not finite",
          errors);
  validate_samples(b.find("wall_ms"), where + ".wall_ms", errors);
  const Value* sim = b.find("sim_ms");
  if (sim == nullptr) {
    errors->push_back(where + ".sim_ms missing (use null)");
  } else if (!sim->is_null()) {
    validate_samples(sim, where + ".sim_ms", errors);
  }
  require(finite_or_null(b.find("speedup_vs_sim")),
          where + ".speedup_vs_sim must be finite or null", errors);
  require(finite_or_null(b.find("accuracy")),
          where + ".accuracy must be finite or null", errors);
  const Value* metric = b.find("accuracy_metric");
  require(metric != nullptr && (metric->is_null() || metric->is_string()),
          where + ".accuracy_metric must be string or null", errors);
  // v3: a bench that names an accuracy metric carries its finite bound;
  // one that names none carries null.
  const Value* bound = b.find("accuracy_bound");
  if (metric != nullptr && metric->is_string()) {
    require(finite_number(bound),
            where + ".accuracy_bound missing or not finite (v3)", errors);
  } else {
    require(bound != nullptr && bound->is_null(),
            where + ".accuracy_bound must be null without a metric (v3)",
            errors);
  }
  const Value* extra = b.find("extra");
  if (extra == nullptr || !extra->is_object()) {
    errors->push_back(where + ".extra missing or not an object (v2)");
  } else {
    for (const auto& [key, value] : extra->items()) {
      require(finite_or_null(&value),
              where + ".extra." + key + " must be finite or null", errors);
    }
  }
  const Value* phases = b.find("phases");
  if (phases == nullptr || !phases->is_array()) {
    errors->push_back(where + ".phases missing or not an array");
    return;
  }
  for (std::size_t i = 0; i < phases->size(); ++i) {
    const Value& p = phases->at(i);
    const std::string pw = where + ".phases[" + std::to_string(i) + "]";
    if (!p.is_object()) {
      errors->push_back(pw + ": expected an object");
      continue;
    }
    const Value* pname = p.find("name");
    require(pname != nullptr && pname->is_string(), pw + ".name missing",
            errors);
    require(finite_number(p.find("count")), pw + ".count not finite",
            errors);
    require(finite_number(p.find("total_ms")), pw + ".total_ms not finite",
            errors);
    require(finite_number(p.find("min_ms")), pw + ".min_ms not finite",
            errors);
    require(finite_number(p.find("max_ms")), pw + ".max_ms not finite",
            errors);
  }
}

}  // namespace

std::vector<std::string> validate_schema(const obs::json::Value& doc) {
  std::vector<std::string> errors;
  if (!doc.is_object()) {
    errors.push_back("document: expected an object");
    return errors;
  }
  const Value* schema = doc.find("schema");
  require(schema != nullptr && schema->is_string() &&
              schema->as_string() == kSchemaName,
          std::string("schema: expected \"") + kSchemaName + "\"",
          &errors);
  const Value* version = doc.find("schema_version");
  require(finite_number(version) &&
              version->as_number() == static_cast<double>(kSchemaVersion),
          "schema_version: expected " + std::to_string(kSchemaVersion),
          &errors);
  const Value* tier = doc.find("tier");
  require(tier != nullptr && tier->is_string() &&
              (tier->as_string() == "quick" || tier->as_string() == "full"),
          "tier: expected \"quick\" or \"full\"", &errors);
  const Value* benches = doc.find("benches");
  if (benches == nullptr || !benches->is_array() || benches->size() == 0) {
    errors.push_back("benches: missing or empty array");
    return errors;
  }
  for (std::size_t i = 0; i < benches->size(); ++i) {
    validate_bench(benches->at(i),
                   "benches[" + std::to_string(i) + "]", &errors);
  }
  return errors;
}

}  // namespace awesim::bench
