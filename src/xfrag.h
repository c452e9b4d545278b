// Umbrella header for the xfrag library — the full public API in one
// include. Fine for applications; library code should include the specific
// module headers instead.
//
// The five-minute tour:
//
//   auto dom      = xfrag::xml::Parse(xml_text);
//   auto document = xfrag::doc::Document::FromDom(*dom);
//   auto index    = xfrag::text::InvertedIndex::Build(*document);
//   xfrag::query::QueryEngine engine(*document, index);
//
//   xfrag::query::Query q;
//   q.terms  = {"xquery", "optimization"};
//   q.filter = *xfrag::query::ParseFilterExpression("size<=3");
//   auto result = engine.Evaluate(q);
//
// Modules:
//   xfrag::xml        — XML parsing, DOM, serialization
//   xfrag::doc        — the rooted ordered tree model (Definition 1)
//   xfrag::text       — tokenization and the keyword index
//   xfrag::algebra    — fragments, joins, fixed points, ⊖, filters
//   xfrag::query      — plans, rewrites, strategies, optimizer, cost model,
//                       answer presentation
//   xfrag::baseline   — SLCA / ELCA / smallest-subtree comparisons
//   xfrag::rel        — the relational backend ([13])
//   xfrag::collection — multi-document collections
//   xfrag::storage    — mmap collection snapshots
//   xfrag::gen        — synthetic corpora and the paper's Figure-1 document

#ifndef XFRAG_XFRAG_H_
#define XFRAG_XFRAG_H_

#include "algebra/filter.h"      // IWYU pragma: export
#include "algebra/fragment.h"    // IWYU pragma: export
#include "algebra/fragment_set.h"  // IWYU pragma: export
#include "algebra/ops.h"         // IWYU pragma: export
#include "baseline/lca_baselines.h"  // IWYU pragma: export
#include "collection/collection.h"   // IWYU pragma: export
#include "collection/collection_engine.h"  // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "doc/document.h"        // IWYU pragma: export
#include "gen/corpus.h"          // IWYU pragma: export
#include "gen/paper_document.h"  // IWYU pragma: export
#include "query/answers.h"       // IWYU pragma: export
#include "query/cost_model.h"    // IWYU pragma: export
#include "query/engine.h"        // IWYU pragma: export
#include "query/fixed_point_cache.h"  // IWYU pragma: export
#include "query/optimizer.h"     // IWYU pragma: export
#include "query/plan.h"          // IWYU pragma: export
#include "query/query.h"         // IWYU pragma: export
#include "query/ranking.h"       // IWYU pragma: export
#include "rel/engine.h"          // IWYU pragma: export
#include "storage/snapshot.h"    // IWYU pragma: export
#include "text/inverted_index.h" // IWYU pragma: export
#include "text/tokenizer.h"      // IWYU pragma: export
#include "xml/dom.h"             // IWYU pragma: export
#include "xml/parser.h"          // IWYU pragma: export
#include "xml/serializer.h"      // IWYU pragma: export

#endif  // XFRAG_XFRAG_H_
