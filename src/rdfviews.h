// Umbrella header: the public API of the rdfviews library.
//
// The paper's pipeline, end to end:
//   1. Load / generate data  -> rdf::Dictionary + rdf::TripleStore
//   2. (optional) RDF Schema -> rdf::Schema, rdf::Saturate
//   3. Parse the workload    -> cq::ParseDatalog / cq::ParseSparql
//   4. Recommend views       -> vsel::ViewSelector::Recommend (one-shot)
//                               or vsel::TuningSession (evolving workloads:
//                               incremental Update, async + cancellation,
//                               one LRU partition cache, persistent via
//                               SessionCacheOptions::cache_dir)
//   5. Materialize & answer  -> vsel::Materialize, vsel::AnswerQuery
//      (or ship the recommendation itself:
//       vsel::serialize::SerializeRecommendation)
#ifndef RDFVIEWS_RDFVIEWS_H_
#define RDFVIEWS_RDFVIEWS_H_

#include "common/status.h"
#include "cq/canonical.h"
#include "cq/containment.h"
#include "cq/parser.h"
#include "cq/query.h"
#include "cq/ucq.h"
#include "engine/evaluator.h"
#include "engine/executor.h"
#include "engine/materializer.h"
#include "rdf/dictionary.h"
#include "rdf/ntriples.h"
#include "rdf/saturation.h"
#include "rdf/schema.h"
#include "rdf/statistics.h"
#include "rdf/triple_store.h"
#include "reform/reformulate.h"
#include "vsel/cost_model.h"
#include "vsel/search.h"
#include "vsel/selector.h"
#include "vsel/serialize/partition_cache.h"
#include "vsel/serialize/serialize.h"
#include "vsel/serialize/tiered_cache.h"
#include "vsel/session/session.h"
#include "vsel/state.h"
#include "vsel/transitions.h"
#include "workload/barton.h"
#include "workload/generator.h"

#endif  // RDFVIEWS_RDFVIEWS_H_
