// Archive bindings for the trained POLARIS artifacts: trees, ensembles,
// datasets, and SHAP rule sets. A model's MODL payload (ml::Model::save and
// ml::Model::load) writes its hyper-parameters and then its ensemble
// through write_ensemble/read_ensemble; the bundle layer builds on the
// rest.
//
// Every write_* / read_* pair round-trips bit-identically (doubles travel
// as IEEE-754 bit patterns), which is what makes a bundled model's
// score_gates output reproducible across hosts and processes.
#pragma once

#include "ml/dataset.hpp"
#include "ml/tree.hpp"
#include "serialize/archive.hpp"
#include "xai/rules.hpp"

namespace polaris::serialize {

void write_tree(Writer& out, const ml::Tree& tree);
[[nodiscard]] ml::Tree read_tree(Reader& in);

void write_ensemble(Writer& out, const ml::TreeEnsemble& ensemble);
[[nodiscard]] ml::TreeEnsemble read_ensemble(Reader& in);

void write_dataset(Writer& out, const ml::Dataset& data);
[[nodiscard]] ml::Dataset read_dataset(Reader& in);

void write_ruleset(Writer& out, const xai::RuleSet& rules);
[[nodiscard]] xai::RuleSet read_ruleset(Reader& in);

}  // namespace polaris::serialize
