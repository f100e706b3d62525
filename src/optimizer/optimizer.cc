#include "optimizer/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "engine/parallel_ops.h"
#include "obs/metrics.h"

namespace insight {

namespace {

// Abstract cost weights: 1.0 per page I/O, 0.01 per tuple of CPU.
constexpr double kTupleCpu = 0.01;
constexpr double kIndexDescent = 3.0;       // B-Tree root-to-leaf pages.
constexpr double kBackwardHitIo = 1.1;      // Heap page per hit.
constexpr double kConventionalHitIo = 2.6;  // Storage row + OID probe + heap.
// Normalized row + OID probe + heap.
constexpr double kBaselineHitIo = 3.2;
constexpr double kDataIndexHitIo = 2.1;     // OID probe + heap page.
constexpr double kPropagationIo = 1.2;      // Summary-storage row per tuple.

// Clears `*flag` for the current scope and restores it on exit (the
// optimizer's parallelism gate while lowering under a Sort).
class ScopedClear {
 public:
  explicit ScopedClear(bool* flag) : flag_(flag), saved_(*flag) {
    *flag = false;
  }
  ~ScopedClear() { *flag_ = saved_; }
  ScopedClear(const ScopedClear&) = delete;
  ScopedClear& operator=(const ScopedClear&) = delete;

 private:
  bool* flag_;
  bool saved_;
};

// True when `label` is one of the instance's actual (leaf) class labels.
// Hierarchical inner labels ("Disease" over "Disease/Viral") are valid in
// predicates but resolve by subtree summation, which neither the
// Summary-BTree nor the per-leaf statistics cover.
bool IsLeafLabel(const RelationInfo& info, const std::string& instance,
                 const std::string& label) {
  if (info.mgr == nullptr) return false;
  auto inst = info.mgr->FindInstance(instance);
  if (!inst.ok()) return false;
  for (const std::string& leaf : (*inst)->labels()) {
    if (EqualsIgnoreCase(leaf, label)) return true;
  }
  return false;
}

// Whether a scan of `info` attaches summary sets: the relation has a
// linked instance (without one, every set is empty).
bool Propagates(const RelationInfo& info) {
  return info.mgr != nullptr && !info.mgr->instances().empty();
}

// "column <op> literal" data conjunct, either operand order ("5 > id" is
// "id < 5").
struct ColumnPredicate {
  std::string column;
  CompareOp op;
  Value constant;
};

std::optional<ColumnPredicate> MatchColumnPredicate(const Expression* expr) {
  const auto* cmp = dynamic_cast<const CompareExpr*>(expr);
  if (cmp == nullptr) return std::nullopt;
  const auto* col = dynamic_cast<const ColumnExpr*>(cmp->left());
  const auto* lit = dynamic_cast<const LiteralExpr*>(cmp->right());
  CompareOp op = cmp->op();
  if (col == nullptr || lit == nullptr) {
    col = dynamic_cast<const ColumnExpr*>(cmp->right());
    lit = dynamic_cast<const LiteralExpr*>(cmp->left());
    op = FlipOp(op);
  }
  if (col == nullptr || lit == nullptr) return std::nullopt;
  return ColumnPredicate{col->name(), op, lit->value()};
}

// A bare containsSingle/containsUnion call (the shape the keyword index
// and the word counts answer); nullptr for any other expression.
const SummaryFuncExpr* KeywordFunc(const Expression* expr) {
  const auto* func = dynamic_cast<const SummaryFuncExpr*>(expr);
  if (func == nullptr || (func->kind() != SummaryFuncKind::kContainsSingle &&
                          func->kind() != SummaryFuncKind::kContainsUnion)) {
    return nullptr;
  }
  return func;
}

// Whether a summary conjunct may drive a summary-first plan over `mgr`'s
// relation. A tuple without annotations has no storage row, so the
// storage scan never sees it: the conjunct must be cleanly FALSE or NULL
// on an empty set, which the plan decides by evaluating it on one. It
// must read no data column (it resolves against the storage scan's empty
// schema), and it must evaluate without error on a set of fresh objects,
// one per linked instance, so that running it before the data conjuncts
// raises no error the base-first plan would not (a label probe on a
// non-classifier instance is a type error).
bool DrivesSummaryFirst(const SummaryManager& mgr, const Expression& conjunct) {
  ExprPtr probe = conjunct.Clone();
  if (!probe->Resolve(Schema()).ok()) return false;
  const Result<Value> empty = probe->Eval(Row{});
  if (!empty.ok()) return false;
  if (!empty->is_null() &&
      !(empty->type() == ValueType::kBool && !empty->AsBool())) {
    return false;
  }
  std::vector<SummaryObject> fresh;
  for (const SummaryInstance& instance : mgr.instances()) {
    fresh.push_back(instance.NewObject(kInvalidOid, 0));
  }
  return probe->Eval(Row{kInvalidOid, Tuple(), SummarySet(std::move(fresh))})
      .ok();
}

}  // namespace

std::vector<ExprPtr> SplitConjuncts(const Expression* expr) {
  std::vector<ExprPtr> out;
  const auto* logical = dynamic_cast<const LogicalExpr*>(expr);
  if (logical != nullptr && logical->kind() == LogicalExpr::Kind::kAnd) {
    auto left = SplitConjuncts(logical->left());
    auto right = SplitConjuncts(logical->right());
    for (auto& e : left) out.push_back(std::move(e));
    for (auto& e : right) out.push_back(std::move(e));
    return out;
  }
  out.push_back(expr->Clone());
  return out;
}

ExprPtr CombineConjuncts(std::vector<ExprPtr> conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr out = std::move(conjuncts[0]);
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    out = And(std::move(out), std::move(conjuncts[i]));
  }
  return out;
}

// ---------- Rewrite rules ----------

// True when every instance is linked to some table in `subtree`;
// *any_linked reports whether at least one is.
Result<bool> Optimizer::InstancesOnlyOn(
    const std::vector<std::string>& instances, const LogicalNode& subtree,
    bool* any_linked) {
  std::vector<std::string> tables;
  subtree.CollectTables(&tables);
  bool all = true;
  bool any = false;
  for (const std::string& instance : instances) {
    bool found = false;
    for (const std::string& table : tables) {
      INSIGHT_ASSIGN_OR_RETURN(const RelationInfo* info, ctx_->Get(table));
      if (info->HasInstance(instance)) {
        found = true;
        break;
      }
    }
    all = all && found;
    any = any || found;
  }
  if (any_linked != nullptr) *any_linked = any;
  return all && !instances.empty();
}

bool Optimizer::ColumnsResolve(const std::vector<std::string>& columns,
                               const LogicalNode& subtree) const {
  for (const std::string& column : columns) {
    if (!FindBaseColumn(subtree, column).has_value()) return false;
  }
  return true;
}

std::optional<EquiJoinKeys> Optimizer::MatchEquiJoin(
    const Expression* expr, const LogicalNode& left,
    const LogicalNode& right) const {
  const auto* cmp = dynamic_cast<const CompareExpr*>(expr);
  if (cmp == nullptr || cmp->op() != CompareOp::kEq) return std::nullopt;
  const auto* a = dynamic_cast<const ColumnExpr*>(cmp->left());
  const auto* b = dynamic_cast<const ColumnExpr*>(cmp->right());
  if (a == nullptr || b == nullptr) return std::nullopt;
  if (FindBaseColumn(left, a->name()) && FindBaseColumn(right, b->name())) {
    return EquiJoinKeys{a->name(), b->name()};
  }
  if (FindBaseColumn(left, b->name()) && FindBaseColumn(right, a->name())) {
    return EquiJoinKeys{b->name(), a->name()};
  }
  return std::nullopt;
}

std::optional<Optimizer::BaseColumn> Optimizer::FindBaseColumn(
    const LogicalNode& subtree, const std::string& name) const {
  if (subtree.kind != LogicalKind::kScan) {
    for (const LogicalPtr& child : subtree.children) {
      if (auto found = FindBaseColumn(*child, name)) return found;
    }
    return std::nullopt;
  }
  Result<const RelationInfo*> info = ctx_->Get(subtree.table);
  if (!info.ok()) return std::nullopt;
  std::string_view column = name;
  if (!subtree.alias.empty()) {
    const size_t n = subtree.alias.size();
    if (column.size() <= n || column[n] != '.' ||
        !EqualsIgnoreCase(column.substr(0, n), subtree.alias)) {
      return std::nullopt;
    }
    column.remove_prefix(n + 1);
  }
  const Schema& schema = (*info)->table->schema();
  Result<size_t> idx = schema.IndexOf(std::string(column));
  if (!idx.ok()) return std::nullopt;
  return BaseColumn{*info, schema.column(*idx).name};
}

Result<bool> Optimizer::PushDownOnce(LogicalNode* node) {
  bool changed = false;

  // Recurse first so inner opportunities surface before outer ones.
  for (LogicalPtr& child : node->children) {
    INSIGHT_ASSIGN_OR_RETURN(bool c, PushDownOnce(child.get()));
    changed = changed || c;
  }

  // Rule 1 canonicalization: sigma commutes below S so data predicates sit
  // closest to the scan (either order is equivalent; this one exposes
  // data-index access paths uniformly).
  if (node->kind == LogicalKind::kSummarySelect &&
      node->children[0]->kind == LogicalKind::kSelect) {
    // Already canonical (S above sigma): nothing to do.
  } else if (node->kind == LogicalKind::kSelect &&
             node->children[0]->kind == LogicalKind::kSummarySelect) {
    std::swap(node->kind, node->children[0]->kind);
    std::swap(node->predicate, node->children[0]->predicate);
    changed = true;
  }

  // Standard sigma pushdown + Rule 9 (sigma below J) + Rule 2/10
  // (S below joins).
  const bool is_select = node->kind == LogicalKind::kSelect;
  const bool is_ssel = node->kind == LogicalKind::kSummarySelect;
  if ((is_select || is_ssel) && node->children.size() == 1 &&
      (node->children[0]->kind == LogicalKind::kJoin ||
       node->children[0]->kind == LogicalKind::kSummaryJoin)) {
    LogicalNode* join = node->children[0].get();
    std::vector<ExprPtr> conjuncts = SplitConjuncts(node->predicate.get());
    std::vector<ExprPtr> kept;
    for (ExprPtr& conjunct : conjuncts) {
      int side = -1;  // 0 = left, 1 = right.
      if (is_select) {
        // sigma: pushable when its columns resolve on one side (standard
        // pushdown; Rule 9 for J).
        std::vector<std::string> columns;
        conjunct->CollectColumns(&columns);
        // Predicates that also touch summaries are S-shaped; treat below.
        if (!conjunct->IsSummaryBased() && !columns.empty()) {
          const bool on_left = ColumnsResolve(columns, *join->children[0]);
          const bool on_right = ColumnsResolve(columns, *join->children[1]);
          if (on_left && !on_right) side = 0;
          if (on_right && !on_left) side = 1;
        }
      } else {
        // S: pushable iff its instances live on exactly one side
        // (Rule 2 for data joins, Rule 10 for J).
        std::vector<std::string> instances;
        conjunct->CollectInstances(&instances);
        std::vector<std::string> columns;
        conjunct->CollectColumns(&columns);
        if (!instances.empty()) {
          bool left_any = false;
          bool right_any = false;
          INSIGHT_ASSIGN_OR_RETURN(
              bool left_all,
              InstancesOnlyOn(instances, *join->children[0], &left_any));
          INSIGHT_ASSIGN_OR_RETURN(
              bool right_all,
              InstancesOnlyOn(instances, *join->children[1], &right_any));
          const bool cols_left = ColumnsResolve(columns, *join->children[0]);
          const bool cols_right = ColumnsResolve(columns, *join->children[1]);
          if (left_all && !right_any && cols_left) side = 0;
          if (right_all && !left_any && cols_right) side = 1;
        }
      }
      if (side < 0) {
        kept.push_back(std::move(conjunct));
        continue;
      }
      LogicalPtr& target = join->children[static_cast<size_t>(side)];
      LogicalPtr wrapped =
          is_select ? LSelect(std::move(target), std::move(conjunct))
                    : LSummarySelect(std::move(target), std::move(conjunct));
      target = std::move(wrapped);
      changed = true;
    }
    if (kept.empty()) {
      // Node dissolves: splice the join up.
      LogicalPtr join_ptr = std::move(node->children[0]);
      *node = std::move(*join_ptr);
      return true;
    }
    node->predicate = CombineConjuncts(std::move(kept));
  }

  // Rules 7 + 8: push the summary filter F below a join.
  if (node->kind == LogicalKind::kSummaryFilter &&
      node->children.size() == 1 &&
      (node->children[0]->kind == LogicalKind::kJoin ||
       node->children[0]->kind == LogicalKind::kSummaryJoin)) {
    const ObjectPredicate& pred = node->object_predicate;
    LogicalNode* join = node->children[0].get();
    if (pred.structural()) {
      bool pushed = false;
      if (pred.instance_name.has_value()) {
        std::vector<std::string> instances = {*pred.instance_name};
        bool left_any = false;
        bool right_any = false;
        INSIGHT_RETURN_NOT_OK(
            InstancesOnlyOn(instances, *join->children[0], &left_any)
                .status());
        INSIGHT_RETURN_NOT_OK(
            InstancesOnlyOn(instances, *join->children[1], &right_any)
                .status());
        if (left_any && !right_any) {
          // Rule 7: instance only on the left side.
          join->children[0] =
              LSummaryFilter(std::move(join->children[0]), pred);
          pushed = true;
        } else if (right_any && !left_any) {
          join->children[1] =
              LSummaryFilter(std::move(join->children[1]), pred);
          pushed = true;
        } else {
          // Rule 8: structural predicates push to both sides.
          join->children[0] =
              LSummaryFilter(std::move(join->children[0]), pred);
          join->children[1] =
              LSummaryFilter(std::move(join->children[1]), pred);
          pushed = true;
        }
      } else {
        // Type-only structural predicate: Rule 8, both sides.
        join->children[0] =
            LSummaryFilter(std::move(join->children[0]), pred);
        join->children[1] =
            LSummaryFilter(std::move(join->children[1]), pred);
        pushed = true;
      }
      if (pushed) {
        LogicalPtr join_ptr = std::move(node->children[0]);
        *node = std::move(*join_ptr);
        return true;
      }
    }
  }

  // Rule 11: switch the order of a data join and a summary join.
  //   Join_c(T, J_p(R, S)) == J_p(Join_c(T, R), S)
  // (and the mirrored Join_c(J_p(R, S), T)), iff p's instances are not on
  // T and c does not involve S's attributes.
  if (node->kind == LogicalKind::kJoin) {
    for (int sj_side = 0; sj_side < 2; ++sj_side) {
      LogicalNode* sjoin = node->children[static_cast<size_t>(sj_side)].get();
      if (sjoin->kind != LogicalKind::kSummaryJoin) continue;
      LogicalNode* t_node =
          node->children[static_cast<size_t>(1 - sj_side)].get();
      // Legality: every column of c belongs to R or T, none only to S.
      std::vector<std::string> c_columns;
      node->predicate->CollectColumns(&c_columns);
      bool c_ok = true;
      for (const std::string& column : c_columns) {
        c_ok = c_ok && (FindBaseColumn(*sjoin->children[0], column) ||
                        FindBaseColumn(*t_node, column));
      }
      if (!c_ok) continue;
      // Legality: p's instances not linked on T.
      std::vector<std::string> p_instances;
      sjoin->summary_join_predicate.CollectInstances(&p_instances);
      bool t_any = false;
      INSIGHT_RETURN_NOT_OK(
          InstancesOnlyOn(p_instances, *t_node, &t_any).status());
      if (t_any) continue;
      // Rewrite: inner data join of (R, T), outer summary join with S.
      LogicalPtr sjoin_ptr =
          std::move(node->children[static_cast<size_t>(sj_side)]);
      LogicalPtr t_ptr =
          std::move(node->children[static_cast<size_t>(1 - sj_side)]);
      LogicalPtr r_ptr = std::move(sjoin_ptr->children[0]);
      LogicalPtr s_ptr = std::move(sjoin_ptr->children[1]);
      LogicalPtr inner_join =
          LJoin(std::move(r_ptr), std::move(t_ptr),
                std::move(node->predicate));
      LogicalPtr new_top =
          LSummaryJoin(std::move(inner_join), std::move(s_ptr),
                       sjoin_ptr->summary_join_predicate.Clone());
      *node = std::move(*new_top);
      return true;
    }
  }

  return changed;
}

Result<LogicalPtr> Optimizer::Rewrite(LogicalPtr plan) {
  if (!options_.enable_rewrite_rules) return plan;
  for (int pass = 0; pass < 20; ++pass) {
    INSIGHT_ASSIGN_OR_RETURN(bool changed, PushDownOnce(plan.get()));
    if (!changed) break;
  }
  return plan;
}

// ---------- Estimation ----------

namespace {

double FallbackSelectivity(const Expression* conjunct) {
  if (dynamic_cast<const LikeExpr*>(conjunct) != nullptr) return 0.1;
  return 1.0 / 3;
}

}  // namespace

Result<PlanEstimate> Optimizer::Estimate(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalKind::kScan: {
      INSIGHT_ASSIGN_OR_RETURN(const RelationInfo* info,
                               ctx_->Get(node.table));
      const SketchPolicy policy = sketch_policy();
      PlanEstimate est;
      est.rows = info->EstimatedRows(policy);
      const double pages =
          info->EstimatedPages(policy, est.rows * kTupleCpu);
      est.cost = std::max(1.0, pages) + est.rows * kTupleCpu;
      if (Propagates(*info)) {
        est.cost +=
            est.rows * kPropagationIo * info->AnnotatedFraction(policy, 1.0);
      }
      return est;
    }
    case LogicalKind::kSelect:
    case LogicalKind::kSummarySelect: {
      INSIGHT_ASSIGN_OR_RETURN(PlanEstimate child,
                               Estimate(*node.children[0]));
      // Selectivity: product over conjuncts, consulting the statistics of
      // the first scan table that owns the referenced column/instance.
      std::vector<std::string> tables;
      node.children[0]->CollectTables(&tables);
      const SketchPolicy policy = sketch_policy();
      double selectivity = 1.0;
      for (const ExprPtr& conjunct :
           SplitConjuncts(node.predicate.get())) {
        double s = FallbackSelectivity(conjunct.get());
        auto indexable = MatchIndexablePredicate(conjunct.get());
        if (indexable.has_value()) {
          for (const std::string& table : tables) {
            INSIGHT_ASSIGN_OR_RETURN(const RelationInfo* info,
                                     ctx_->Get(table));
            if ((info->stats.has_value() ||
                 info->SketchTierActive(policy)) &&
                info->HasInstance(indexable->instance) &&
                IsLeafLabel(*info, indexable->instance, indexable->label)) {
              s = info->LabelSelectivity(policy, indexable->instance,
                                         indexable->label, indexable->op,
                                         indexable->constant, s);
              break;
            }
          }
        } else if (const SummaryFuncExpr* func = KeywordFunc(conjunct.get())) {
          for (const std::string& table : tables) {
            INSIGHT_ASSIGN_OR_RETURN(const RelationInfo* info,
                                     ctx_->Get(table));
            if (info->HasInstance(func->instance())) {
              s = info->KeywordSelectivity(policy, *func, s);
              break;
            }
          }
        } else if (auto pred = MatchColumnPredicate(conjunct.get())) {
          const auto ref = FindBaseColumn(*node.children[0], pred->column);
          if (ref.has_value() && (ref->info->stats.has_value() ||
                                  ref->info->SketchTierActive(policy))) {
            s = ref->info->ColumnSelectivity(policy, ref->column, pred->op,
                                             pred->constant, s);
          }
        }
        selectivity *= s;
      }
      PlanEstimate est;
      est.rows = std::max(1.0, child.rows * selectivity);
      est.cost = child.cost + child.rows * kTupleCpu;
      return est;
    }
    case LogicalKind::kSummaryFilter:
    case LogicalKind::kDistinct: {
      INSIGHT_ASSIGN_OR_RETURN(PlanEstimate child,
                               Estimate(*node.children[0]));
      child.cost += child.rows * kTupleCpu;
      return child;
    }
    case LogicalKind::kProject: {
      INSIGHT_ASSIGN_OR_RETURN(PlanEstimate child,
                               Estimate(*node.children[0]));
      child.cost += child.rows * kTupleCpu;
      return child;
    }
    case LogicalKind::kJoin:
    case LogicalKind::kSummaryJoin: {
      INSIGHT_ASSIGN_OR_RETURN(PlanEstimate left,
                               Estimate(*node.children[0]));
      INSIGHT_ASSIGN_OR_RETURN(PlanEstimate right,
                               Estimate(*node.children[1]));
      PlanEstimate est;
      double denominator = 3.0;
      if (node.kind == LogicalKind::kJoin) {
        for (const ExprPtr& conjunct :
             SplitConjuncts(node.predicate.get())) {
          auto keys = MatchEquiJoin(conjunct.get(), *node.children[0],
                                    *node.children[1]);
          if (!keys.has_value()) continue;
          // NDV of each key from the base column it resolves to (HLL
          // sketches once the histograms go stale).
          const SketchPolicy policy = sketch_policy();
          uint64_t ndv = 1;
          for (size_t side = 0; side < 2; ++side) {
            const std::string& column =
                side == 0 ? keys->left_column : keys->right_column;
            const auto ref = FindBaseColumn(*node.children[side], column);
            if (ref.has_value()) {
              ndv = std::max(ndv,
                             ref->info->ColumnDistinctEst(policy, ref->column));
            }
          }
          denominator = std::max(denominator, static_cast<double>(ndv));
        }
      } else if (!node.summary_join_predicate.merged_form()) {
        // Equality of classifier label counts: ndv of the count fields.
        std::vector<std::string> instances;
        node.summary_join_predicate.CollectInstances(&instances);
        // Coarse: use fallback 3.0 unless stats say otherwise; refined by
        // per-side label ndv when available.
        for (size_t side = 0; side < 2; ++side) {
          std::vector<std::string> tables;
          node.children[side]->CollectTables(&tables);
          for (const std::string& table : tables) {
            INSIGHT_ASSIGN_OR_RETURN(const RelationInfo* info,
                                     ctx_->Get(table));
            if (!info->stats.has_value() || info->live_stats == nullptr) {
              continue;
            }
            for (const std::string& instance : instances) {
              denominator = std::max(
                  denominator, static_cast<double>(
                                   info->live_stats->MaxLabelDistinct(
                                       instance)));
            }
          }
        }
      }
      est.rows = std::max(1.0, left.rows * right.rows / denominator);
      est.cost = left.cost + right.cost +
                 left.rows * right.rows * kTupleCpu;
      return est;
    }
    case LogicalKind::kSort: {
      INSIGHT_ASSIGN_OR_RETURN(PlanEstimate child,
                               Estimate(*node.children[0]));
      const double n = std::max(2.0, child.rows);
      child.cost += n * std::log2(n) * kTupleCpu;
      if (options_.sort_mode == SortOp::Mode::kExternal) {
        child.cost += 2.0 * n * kTupleCpu * 10;  // Spill + merge I/O.
      }
      return child;
    }
    case LogicalKind::kAggregate: {
      INSIGHT_ASSIGN_OR_RETURN(PlanEstimate child,
                               Estimate(*node.children[0]));
      PlanEstimate est;
      est.rows = std::max(1.0, child.rows / 10);
      est.cost = child.cost + child.rows * 2 * kTupleCpu;
      return est;
    }
    case LogicalKind::kLimit: {
      INSIGHT_ASSIGN_OR_RETURN(PlanEstimate child,
                               Estimate(*node.children[0]));
      child.rows = std::min(child.rows, static_cast<double>(node.limit));
      return child;
    }
  }
  return Status::Internal("unreachable");
}

// ---------- Lowering ----------

namespace {

// Hands `limit` to an operator that can stop early once it has emitted
// that many rows; false for every other operator.
bool HandLimit(PhysicalOperator* op, uint64_t limit) {
  if (auto* gather = dynamic_cast<GatherOp*>(op)) {
    gather->set_limit(limit);
  } else if (auto* scan = dynamic_cast<SummaryIndexScanOp*>(op)) {
    scan->set_limit(limit);
  } else if (auto* sort = dynamic_cast<SortOp*>(op)) {
    sort->set_limit(limit);
  } else {
    return false;
  }
  return true;
}

// A column predicate an index range or a zone map can answer: no `<>`,
// and no NULL literal (a comparison with NULL holds for no row, while the
// index and the zone maps would treat NULL as an ordinary key).
bool RangeProbeable(const ColumnPredicate& pred) {
  return pred.op != CompareOp::kNe && !pred.constant.is_null();
}

ClassifierProbe ProbeFor(const IndexablePredicate& pred) {
  switch (pred.op) {
    case CompareOp::kEq:
      return ClassifierProbe::Equal(pred.label, pred.constant);
    case CompareOp::kLt:
      return ClassifierProbe::LessThan(pred.label, pred.constant);
    case CompareOp::kLe: {
      ClassifierProbe probe;
      probe.label = pred.label;
      probe.upper = pred.constant;
      return probe;
    }
    case CompareOp::kGt:
      return ClassifierProbe::GreaterThan(pred.label, pred.constant);
    case CompareOp::kGe: {
      ClassifierProbe probe;
      probe.label = pred.label;
      probe.lower = pred.constant;
      return probe;
    }
    default:
      break;
  }
  ClassifierProbe probe;
  probe.label = pred.label;
  return probe;
}

ZoneOp ZoneOpFor(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return ZoneOp::kLt;
    case CompareOp::kLe:
      return ZoneOp::kLe;
    case CompareOp::kGt:
      return ZoneOp::kGt;
    case CompareOp::kGe:
      return ZoneOp::kGe;
    default:
      return ZoneOp::kEq;
  }
}

// Collects every conjunct the page zone maps can refute: range-probeable
// column-vs-literal data conjuncts, plus labelValue conjuncts gated on
// classifier instances so a skipped page cannot mask the type error a
// non-classifier probe raises.
// `schema` is what the scan emits; its ordinals are the heap's.
ZonePredicate BuildZonePredicate(
    const RelationInfo& info, const Schema& schema,
    const std::vector<ExprPtr>& data_conjuncts,
    const std::vector<ExprPtr>& summary_conjuncts) {
  ZonePredicate pred;
  for (const ExprPtr& conjunct : data_conjuncts) {
    auto cp = MatchColumnPredicate(conjunct.get());
    if (!cp.has_value() || !RangeProbeable(*cp)) continue;
    auto idx = schema.IndexOf(cp->column);
    if (!idx.ok()) continue;
    ZoneProbe probe;
    probe.kind = ZoneProbe::Kind::kColumn;
    probe.column = *idx;
    probe.op = ZoneOpFor(cp->op);
    probe.constant = cp->constant;
    pred.probes.push_back(std::move(probe));
  }
  if (info.mgr != nullptr) {
    for (const ExprPtr& conjunct : summary_conjuncts) {
      auto ip = MatchIndexablePredicate(conjunct.get());
      if (!ip.has_value()) continue;
      auto inst = info.mgr->FindInstance(ip->instance);
      if (!inst.ok() || (*inst)->type() != SummaryType::kClassifier) continue;
      ZoneProbe probe;
      probe.kind = ZoneProbe::Kind::kLabel;
      probe.label_key = ToLower((*inst)->name()) + "." + ToLower(ip->label);
      probe.op = ZoneOpFor(ip->op);
      probe.constant = Value::Int(ip->constant);
      pred.probes.push_back(std::move(probe));
    }
  }
  return pred;
}

}  // namespace

Result<Optimizer::Lowered> Optimizer::LowerAccessPath(
    const LogicalNode& node) {
  // Walk the selection chain down to the scan.
  std::vector<ExprPtr> data_conjuncts;
  std::vector<ExprPtr> summary_conjuncts;
  const LogicalNode* cur = &node;
  while (cur->kind == LogicalKind::kSelect ||
         cur->kind == LogicalKind::kSummarySelect) {
    for (ExprPtr& conjunct : SplitConjuncts(cur->predicate.get())) {
      if (conjunct->IsSummaryBased()) {
        summary_conjuncts.push_back(std::move(conjunct));
      } else {
        data_conjuncts.push_back(std::move(conjunct));
      }
    }
    cur = cur->children[0].get();
  }
  INSIGHT_CHECK(cur->kind == LogicalKind::kScan);
  INSIGHT_ASSIGN_OR_RETURN(const RelationInfo* info, ctx_->Get(cur->table));
  const bool propagate = Propagates(*info);
  const SketchPolicy policy = sketch_policy();
  const double table_rows = info->EstimatedRows(policy);
  const double table_pages =
      info->EstimatedPages(policy, table_rows * kTupleCpu);
  // Summary sets attach late, after every data conjunct: each candidate
  // pays propagation only for the rows that survive them.
  double data_selectivity = 1.0;
  for (const ExprPtr& conjunct : data_conjuncts) {
    double s = FallbackSelectivity(conjunct.get());
    if (auto pred = MatchColumnPredicate(conjunct.get())) {
      if (const auto ref = FindBaseColumn(*cur, pred->column)) {
        s = info->ColumnSelectivity(policy, ref->column, pred->op,
                                    pred->constant, s);
      }
    }
    data_selectivity *= s;
  }
  // Propagation cost of an access path yielding `rows` candidates.
  auto attach_cost = [&](double rows) {
    return propagate ? rows * data_selectivity * kPropagationIo : 0.0;
  };

  struct Candidate {
    enum class Kind {
      kSeq,
      kDataIndex,
      kSummaryIndex,
      kBaselineIndex,
      kKeywordIndex,
      kSummaryFirst,
    };
    Kind kind;
    double cost;
    size_t conjunct;  // Consumed conjunct position (in its list).
    std::optional<PhysOrder> order;
    double rows = 0;  // Summary-first: the base rows it fetches.
  };
  // Zone-map pruning cheapens the sequential path: scale its cost by the
  // fraction of pages the current bounds would actually let us read.
  ZonePredicate zone_pred = BuildZonePredicate(
      *info, info->table->schema().Qualified(cur->alias), data_conjuncts,
      summary_conjuncts);
  double seq_keep_fraction = 1.0;
  if (!zone_pred.empty() && info->table->zone_maps() != nullptr) {
    seq_keep_fraction -= info->table->zone_maps()->EstimateSkipFraction(
        zone_pred, static_cast<size_t>(info->table->heap_pages()));
  }

  // The morsel-parallel gate: when open, the sequential path runs as
  // partitions under a Gather.
  ExecutionContext* exec = ctx_->exec_context();
  const size_t workers = exec != nullptr ? exec->parallelism() : 1;
  const bool parallel = allow_parallel_ && workers > 1 &&
                        table_rows >= options_.parallel_row_threshold;

  std::vector<Candidate> candidates;
  candidates.push_back(Candidate{
      Candidate::Kind::kSeq,
      seq_keep_fraction * (table_pages + table_rows * kTupleCpu) +
          attach_cost(table_rows),
      0, std::nullopt});

  if (options_.use_data_indexes) {
    for (size_t i = 0; i < data_conjuncts.size(); ++i) {
      auto pred = MatchColumnPredicate(data_conjuncts[i].get());
      if (!pred.has_value() || !RangeProbeable(*pred)) continue;
      const auto ref = FindBaseColumn(*cur, pred->column);
      if (!ref || info->table->GetColumnIndex(ref->column) == nullptr) continue;
      const double selectivity = info->ColumnSelectivity(
          policy, ref->column, pred->op, pred->constant, 0.1);
      const double hits = table_rows * selectivity;
      candidates.push_back(Candidate{
          Candidate::Kind::kDataIndex,
          kIndexDescent + hits * kDataIndexHitIo + attach_cost(table_rows),
          i, std::nullopt});
    }
  }
  for (size_t i = 0; i < summary_conjuncts.size(); ++i) {
    auto pred = MatchIndexablePredicate(summary_conjuncts[i].get());
    if (!pred.has_value()) continue;
    if (!IsLeafLabel(*info, pred->instance, pred->label)) continue;
    const double selectivity = info->LabelSelectivity(
        policy, pred->instance, pred->label, pred->op, pred->constant, 0.05);
    const double hits = table_rows * selectivity;
    const SummaryBTree* sbt =
        options_.use_summary_indexes ? info->SummaryIndexFor(pred->instance)
                                     : nullptr;
    if (sbt != nullptr) {
      // Conventional pointers read each hit's storage row anyway, so that
      // scan attaches every hit itself; backward pointers attach late.
      const bool backward =
          sbt->pointer_mode() == SummaryBTree::PointerMode::kBackward;
      candidates.push_back(Candidate{
          Candidate::Kind::kSummaryIndex,
          kIndexDescent + hits * (backward ? kBackwardHitIo
                                           : kConventionalHitIo) +
              (backward ? attach_cost(hits)
                        : (propagate ? hits * kPropagationIo : 0.0)),
          i, PhysOrder{pred->instance, pred->label}});
    }
    const BaselineClassifierIndex* baseline =
        options_.use_baseline_indexes ? info->BaselineIndexFor(pred->instance)
                                      : nullptr;
    if (baseline != nullptr) {
      candidates.push_back(Candidate{
          Candidate::Kind::kBaselineIndex,
          kIndexDescent + hits * kBaselineHitIo +
              (propagate ? hits * kPropagationIo : 0.0),
          i, PhysOrder{pred->instance, pred->label}});
    }
  }

  if (options_.use_summary_indexes) {
    // Keyword-index candidates for bare containsSingle/containsUnion
    // conjuncts over an inverted-indexed Snippet instance.
    for (size_t i = 0; i < summary_conjuncts.size(); ++i) {
      const SummaryFuncExpr* func = KeywordFunc(summary_conjuncts[i].get());
      if (func == nullptr ||
          info->KeywordIndexFor(func->instance()) == nullptr) {
        continue;
      }
      const double hits =
          table_rows * info->KeywordSelectivity(policy, *func, 0.02);
      // The posting-list OIDs ascend, so one GetMany walk fetches the
      // hits and reads each base heap page at most once.
      candidates.push_back(Candidate{
          Candidate::Kind::kKeywordIndex,
          kIndexDescent * static_cast<double>(func->keywords().size()) +
              std::min(hits, table_pages) + hits * kTupleCpu +
              attach_cost(hits),
          i, std::nullopt});
    }
  }

  // Summary-first: the paper's 1-1 join R ⋈ R_SummaryStorage driven from
  // the storage side, for the summary conjuncts no index answers. The
  // storage heap is scanned, the driving conjuncts test each stored set in
  // place, and only the tuples that pass are fetched from the base table,
  // their sets already in hand. Serial only: it is left out when the
  // parallel gate is open.
  std::vector<bool> driving(summary_conjuncts.size(), false);
  if (propagate && !parallel) {
    double selectivity = 1.0;
    bool any = false;
    for (size_t i = 0; i < summary_conjuncts.size(); ++i) {
      const Expression* conjunct = summary_conjuncts[i].get();
      double s = FallbackSelectivity(conjunct);
      if (auto pred = MatchIndexablePredicate(conjunct);
          pred.has_value() && IsLeafLabel(*info, pred->instance, pred->label)) {
        if ((options_.use_summary_indexes &&
             info->SummaryIndexFor(pred->instance) != nullptr) ||
            (options_.use_baseline_indexes &&
             info->BaselineIndexFor(pred->instance) != nullptr)) {
          continue;  // An index candidate answers it.
        }
        s = info->LabelSelectivity(policy, pred->instance, pred->label,
                                   pred->op, pred->constant, s);
      } else if (const SummaryFuncExpr* func = KeywordFunc(conjunct)) {
        if (options_.use_summary_indexes &&
            info->KeywordIndexFor(func->instance()) != nullptr) {
          continue;
        }
        s = info->KeywordSelectivity(policy, *func, s);
      }
      if (!DrivesSummaryFirst(*info->mgr, *conjunct)) continue;
      driving[i] = any = true;
      selectivity *= s;
    }
    if (any) {
      const Table* storage = info->mgr->storage_table();
      const double storage_rows = static_cast<double>(storage->num_rows());
      // The base fetch is the same GetMany walk as an attach, on the
      // other table.
      const double hits = std::min(storage_rows, table_rows * selectivity);
      candidates.push_back(Candidate{
          Candidate::Kind::kSummaryFirst,
          static_cast<double>(storage->heap_pages()) +
              storage_rows * kTupleCpu + hits * kPropagationIo,
          0, std::nullopt, hits});
    }
  }

  const Candidate* best = &candidates[0];
  for (const Candidate& candidate : candidates) {
    if (candidate.cost < best->cost) best = &candidate;
  }

  OpPtr op;
  std::optional<PhysOrder> order = best->order;
  // Whether the chosen path attaches the summary sets itself; otherwise it
  // runs bare and, when the relation propagates, the sets attach late
  // (above the data residual).
  bool self_attach = false;
  // The operator whose output feeds cardinality feedback (null: the
  // access path's root).
  PhysicalOperator* feedback = nullptr;
  switch (best->kind) {
    case Candidate::Kind::kSeq: {
      if (parallel) {
        // Morsel-parallel scan: N partitions share one morsel dispenser,
        // residual selections and the attach are cloned into every
        // partition so the filtering and propagation run on the workers,
        // and the Gather merges the partition streams at its barrier.
        auto morsels = std::make_shared<MorselSource>(
            info->table->heap_pages(), options_.morsel_pages);
        std::vector<OpPtr> partitions;
        partitions.reserve(workers);
        for (size_t w = 0; w < workers; ++w) {
          auto scan = std::make_unique<ParallelScanOp>(info->table, morsels);
          scan->SetZonePredicate(zone_pred);  // Copy: one per partition.
          scan->SetReadColumns(ReadColumns(*cur, info->table->schema()));
          scan->Qualify(cur->alias);
          Lowered part{std::move(scan), std::nullopt,
                       propagate ? info->mgr : nullptr};
          WrapResiduals(data_conjuncts, summary_conjuncts, &part);
          partitions.push_back(
              std::make_unique<ExchangeOp>(Materialize(&part), w));
        }
        op = std::make_unique<GatherOp>(std::move(partitions), morsels);
        // Cross-partition order is nondeterministic: no interesting order.
        return Lowered{std::move(op), std::nullopt, nullptr};
      }
      auto scan = std::make_unique<SeqScanOp>(info->table);
      scan->SetZonePredicate(std::move(zone_pred));
      scan->SetReadColumns(ReadColumns(*cur, info->table->schema()));
      op = std::move(scan);
      break;
    }
    case Candidate::Kind::kDataIndex: {
      auto pred = *MatchColumnPredicate(data_conjuncts[best->conjunct].get());
      const std::string column = FindBaseColumn(*cur, pred.column)->column;
      std::optional<Value> lower;
      std::optional<Value> upper;
      bool lower_inc = true;
      bool upper_inc = true;
      switch (pred.op) {
        case CompareOp::kEq:
          lower = pred.constant;
          upper = pred.constant;
          break;
        case CompareOp::kLt:
          upper = pred.constant;
          upper_inc = false;
          break;
        case CompareOp::kLe:
          upper = pred.constant;
          break;
        case CompareOp::kGt:
          lower = pred.constant;
          lower_inc = false;
          break;
        case CompareOp::kGe:
          lower = pred.constant;
          break;
        default:
          break;
      }
      op = std::make_unique<IndexScanOp>(info->table, column, lower, lower_inc,
                                         upper, upper_inc);
      data_conjuncts.erase(data_conjuncts.begin() +
                           static_cast<long>(best->conjunct));
      break;
    }
    case Candidate::Kind::kSummaryIndex: {
      auto pred =
          *MatchIndexablePredicate(summary_conjuncts[best->conjunct].get());
      const SummaryBTree* sbt = info->SummaryIndexFor(pred.instance);
      self_attach =
          sbt->pointer_mode() == SummaryBTree::PointerMode::kConventional;
      op = std::make_unique<SummaryIndexScanOp>(sbt, ProbeFor(pred), info->mgr,
                                                propagate && self_attach);
      summary_conjuncts.erase(summary_conjuncts.begin() +
                              static_cast<long>(best->conjunct));
      break;
    }
    case Candidate::Kind::kBaselineIndex: {
      auto pred =
          *MatchIndexablePredicate(summary_conjuncts[best->conjunct].get());
      self_attach = true;
      op = std::make_unique<BaselineIndexScanOp>(
          info->BaselineIndexFor(pred.instance), ProbeFor(pred), info->mgr,
          propagate, /*reconstruct_summaries=*/false);
      summary_conjuncts.erase(summary_conjuncts.begin() +
                              static_cast<long>(best->conjunct));
      break;
    }
    case Candidate::Kind::kKeywordIndex: {
      const auto* func = dynamic_cast<const SummaryFuncExpr*>(
          summary_conjuncts[best->conjunct].get());
      op = std::make_unique<KeywordIndexScanOp>(
          info->table, info->KeywordIndexFor(func->instance()),
          func->keywords());
      // The posting lists hold every version's words, whatever the
      // snapshot, so they over-approximate both functions: the conjunct
      // stays in summary_conjuncts as a residual re-check, whose S reads
      // the late-attached summary sets (the index's instance is linked, so
      // the relation propagates).
      break;
    }
    case Candidate::Kind::kSummaryFirst: {
      // The driving conjuncts run on the stored sets between the two
      // operators; the others stay residual above the fetch, with the
      // data conjuncts.
      std::vector<ExprPtr> drive;
      std::vector<ExprPtr> rest;
      for (size_t i = 0; i < summary_conjuncts.size(); ++i) {
        (driving[i] ? drive : rest).push_back(std::move(summary_conjuncts[i]));
      }
      summary_conjuncts = std::move(rest);
      auto fetch = std::make_unique<FetchBaseOp>(
          std::make_unique<SummarySelectOp>(
              std::make_unique<SummaryStorageScanOp>(info->mgr),
              CombineConjuncts(std::move(drive))),
          info->table);
      fetch->SetReadColumns(ReadColumns(*cur, info->table->schema()));
      // Its estimate is the rows the driving conjuncts pass: the base
      // rows fetched, not the storage rows read.
      fetch->set_estimated_rows(std::max(1.0, best->rows));
      fetch->set_estimate_source(EstimateSourceFor(*cur));
      feedback = fetch.get();
      self_attach = true;
      op = std::move(fetch);
      break;
    }
  }

  // Every candidate is a ScanOp; it emits the FROM entry's `rel.col`.
  static_cast<ScanOp*>(op.get())->Qualify(cur->alias);

  Lowered out{std::move(op), order,
              propagate && !self_attach ? info->mgr : nullptr};
  WrapResiduals(data_conjuncts, summary_conjuncts, &out);
  // The access-path root is where table statistics turned into an
  // estimate; misestimates observed at runtime feed back to this table.
  (feedback != nullptr ? feedback : out.op.get())
      ->set_feedback_table(cur->table);
  return out;
}

void Optimizer::WrapResiduals(const std::vector<ExprPtr>& data_conjuncts,
                              const std::vector<ExprPtr>& summary_conjuncts,
                              Lowered* lowered) {
  // Data selection first (Rule 1 lets us order freely), then the attach,
  // then the summary selection. All preserve the interesting order (Rules
  // 3-4).
  auto combined = [](const std::vector<ExprPtr>& conjuncts) {
    std::vector<ExprPtr> cloned;
    cloned.reserve(conjuncts.size());
    for (const ExprPtr& conjunct : conjuncts) {
      cloned.push_back(conjunct->Clone());
    }
    return CombineConjuncts(std::move(cloned));
  };
  if (!data_conjuncts.empty()) {
    lowered->op = std::make_unique<SelectOp>(std::move(lowered->op),
                                             combined(data_conjuncts));
  }
  if (!summary_conjuncts.empty()) {
    lowered->op = std::make_unique<SummarySelectOp>(
        Materialize(lowered), combined(summary_conjuncts));
  }
}

OpPtr Optimizer::Materialize(Lowered* lowered) {
  OpPtr op = std::move(lowered->op);
  if (lowered->pending_attach == nullptr) return op;
  auto attach = std::make_unique<AttachSummariesOp>(std::move(op),
                                                    lowered->pending_attach);
  lowered->pending_attach = nullptr;
  // 1:1: the attach emits exactly what its input does.
  PhysicalOperator* input = attach->children()[0];
  if (input->has_estimate()) {
    attach->set_estimated_rows(input->estimated_rows());
    attach->set_estimate_source(input->estimate_source());
  }
  return attach;
}

EstimateSource Optimizer::EstimateSourceFor(const LogicalNode& node) const {
  std::vector<std::string> tables;
  node.CollectTables(&tables);
  const SketchPolicy policy = sketch_policy();
  EstimateSource source = EstimateSource::kNone;
  for (const std::string& table : tables) {
    Result<const RelationInfo*> info = ctx_->Get(table);
    if (!info.ok()) continue;
    switch ((*info)->Source(policy)) {
      case EstimateSource::kSketch:
        return EstimateSource::kSketch;  // Any sketch answer dominates.
      case EstimateSource::kFeedback:
        source = EstimateSource::kFeedback;
        break;
      case EstimateSource::kHistogram:
        if (source == EstimateSource::kNone) {
          source = EstimateSource::kHistogram;
        }
        break;
      case EstimateSource::kNone:
        break;
    }
  }
  return source;
}

Result<Optimizer::Lowered> Optimizer::LowerRec(const LogicalNode& node) {
  INSIGHT_ASSIGN_OR_RETURN(Lowered out, LowerRecImpl(node));
  // Stamp the plan-time cardinality estimate onto the physical operator;
  // EXPLAIN ANALYZE diffs it against the runtime row count (q-error) and
  // the feedback loop judges the statistics by it. An estimation failure
  // only leaves the operator unstamped — it never fails the lowering.
  if (out.op != nullptr && !out.op->has_estimate()) {
    Result<PlanEstimate> est = Estimate(node);
    if (est.ok()) {
      out.op->set_estimated_rows(est->rows);
      const EstimateSource source = EstimateSourceFor(node);
      out.op->set_estimate_source(source);
      if (source == EstimateSource::kSketch) {
        EngineMetrics::Get().stats_sketch_estimates->Add(1);
      } else if (source != EstimateSource::kNone) {
        EngineMetrics::Get().stats_histogram_estimates->Add(1);
      }
    }
  }
  return out;
}

Result<Optimizer::Lowered> Optimizer::LowerRecImpl(const LogicalNode& node) {
  switch (node.kind) {
    case LogicalKind::kScan:
    case LogicalKind::kSelect:
    case LogicalKind::kSummarySelect: {
      // Selection chains over a scan go through access-path selection;
      // anything else lowers generically.
      const LogicalNode* cur = &node;
      while (cur->kind == LogicalKind::kSelect ||
             cur->kind == LogicalKind::kSummarySelect) {
        cur = cur->children[0].get();
      }
      if (cur->kind == LogicalKind::kScan) return LowerAccessPath(node);
      // Rules 3-4: selections preserve order. A data selection passes a
      // pending attach through; one that reads summary sets forces it.
      INSIGHT_ASSIGN_OR_RETURN(Lowered out, LowerRec(*node.children[0]));
      OpPtr child = node.predicate->IsSummaryBased() ? Materialize(&out)
                                                     : std::move(out.op);
      if (node.kind == LogicalKind::kSelect) {
        out.op = std::make_unique<SelectOp>(std::move(child),
                                            node.predicate->Clone());
      } else {
        out.op = std::make_unique<SummarySelectOp>(std::move(child),
                                                   node.predicate->Clone());
      }
      return out;
    }
    case LogicalKind::kSummaryFilter: {
      INSIGHT_ASSIGN_OR_RETURN(Lowered child, LowerRec(*node.children[0]));
      Lowered out;
      out.order = child.order;
      out.op = std::make_unique<SummaryFilterOp>(Materialize(&child),
                                                 node.object_predicate);
      return out;
    }
    case LogicalKind::kProject: {
      INSIGHT_ASSIGN_OR_RETURN(Lowered child, LowerRec(*node.children[0]));
      Lowered out;
      // Projection may eliminate annotation effects, perturbing label
      // counts: conservatively drop the interesting order.
      out.op = std::make_unique<ProjectOp>(Materialize(&child), node.columns,
                                           ctx_->MakeResolver());
      return out;
    }
    case LogicalKind::kJoin: {
      INSIGHT_ASSIGN_OR_RETURN(Lowered left, LowerRec(*node.children[0]));

      // The first equi-join conjunct keys an index or hash join; the rest
      // stay residual.
      std::optional<EquiJoinKeys> keys;
      std::vector<ExprPtr> residual;
      for (ExprPtr& conjunct : SplitConjuncts(node.predicate.get())) {
        if (!keys.has_value()) {
          keys = MatchEquiJoin(conjunct.get(), *node.children[0],
                               *node.children[1]);
          if (keys.has_value()) continue;
        }
        residual.push_back(std::move(conjunct));
      }
      // Index join candidacy: right side is a scan whose equi-join column
      // is indexed.
      const LogicalNode* right_node = node.children[1].get();
      bool index_join = false;
      std::optional<BaseColumn> inner;
      if (options_.use_data_indexes && keys.has_value() &&
          right_node->kind == LogicalKind::kScan) {
        inner = FindBaseColumn(*right_node, keys->right_column);
        index_join = inner.has_value() &&
                     inner->info->table->GetColumnIndex(inner->column) !=
                         nullptr;
        if (index_join) {
          // Cost guard: index join wins unless the outer is huge relative
          // to the inner (probe per outer row vs one materialization).
          INSIGHT_ASSIGN_OR_RETURN(PlanEstimate lest,
                                   Estimate(*node.children[0]));
          INSIGHT_ASSIGN_OR_RETURN(PlanEstimate rest,
                                   Estimate(*node.children[1]));
          const double nl_cost = lest.rows * rest.rows * kTupleCpu;
          const double inl_cost = lest.rows * (kIndexDescent * kTupleCpu +
                                               kDataIndexHitIo * kTupleCpu);
          index_join = inl_cost < nl_cost;
        }
      }

      // Order preservation (Rule 5): both join strategies iterate the
      // outer side; the order survives when its instance is not linked on
      // the inner side.
      std::optional<PhysOrder> order = left.order;
      if (order.has_value()) {
        bool inner_any = false;
        INSIGHT_RETURN_NOT_OK(InstancesOnlyOn({order->instance},
                                              *node.children[1], &inner_any)
                                  .status());
        if (inner_any) order.reset();
      }

      Lowered out;
      out.order = order;
      if (index_join) {
        auto join = std::make_unique<IndexNLJoinOp>(
            Materialize(&left), inner->info->table, inner->column,
            Col(keys->left_column),
            Propagates(*inner->info) ? inner->info->mgr : nullptr);
        join->QualifyInner(right_node->alias);
        out.op = std::move(join);
        // Residual conjuncts beyond the equi key become a post-select.
        if (!residual.empty()) {
          out.op = std::make_unique<SelectOp>(
              std::move(out.op), CombineConjuncts(std::move(residual)));
        }
      } else if (options_.enable_hash_join && keys.has_value()) {
        // Hash join: build on the right, probe with the left (outer order
        // preserved, so the Rule 5 analysis above still applies).
        INSIGHT_ASSIGN_OR_RETURN(Lowered right, LowerRec(*node.children[1]));
        out.op = std::make_unique<HashJoinOp>(
            Materialize(&left), Materialize(&right), keys->left_column,
            keys->right_column, CombineConjuncts(std::move(residual)));
      } else {
        INSIGHT_ASSIGN_OR_RETURN(Lowered right, LowerRec(*node.children[1]));
        out.op = std::make_unique<NestedLoopJoinOp>(Materialize(&left),
                                                    Materialize(&right),
                                                    node.predicate->Clone());
      }
      return out;
    }
    case LogicalKind::kSummaryJoin: {
      INSIGHT_ASSIGN_OR_RETURN(Lowered left, LowerRec(*node.children[0]));
      const LogicalNode* right_node = node.children[1].get();
      const SummaryJoinPredicate& pred = node.summary_join_predicate;

      // Index strategy: equality of the same instance.label on both
      // sides, right side a bare scan with a Summary-BTree.
      bool index_join = false;
      const RelationInfo* right_info = nullptr;
      const SummaryBTree* right_index = nullptr;
      std::string instance;
      std::string label;
      if (options_.use_summary_indexes && !pred.merged_form() &&
          pred.op == CompareOp::kEq &&
          right_node->kind == LogicalKind::kScan) {
        const auto* lf =
            dynamic_cast<const SummaryFuncExpr*>(pred.left_expr.get());
        const auto* rf =
            dynamic_cast<const SummaryFuncExpr*>(pred.right_expr.get());
        if (lf != nullptr && rf != nullptr &&
            lf->kind() == SummaryFuncKind::kLabelValue &&
            rf->kind() == SummaryFuncKind::kLabelValue &&
            EqualsIgnoreCase(lf->label(), rf->label())) {
          INSIGHT_ASSIGN_OR_RETURN(right_info, ctx_->Get(right_node->table));
          right_index = right_info->SummaryIndexFor(rf->instance());
          if (right_index != nullptr) {
            index_join = true;
            instance = lf->instance();
            label = lf->label();
          }
        }
      }

      std::optional<PhysOrder> order = left.order;  // Rule 6.
      if (order.has_value()) {
        bool inner_any = false;
        INSIGHT_RETURN_NOT_OK(InstancesOnlyOn({order->instance},
                                              *node.children[1], &inner_any)
                                  .status());
        if (inner_any) order.reset();
      }

      Lowered out;
      out.order = order;
      if (index_join) {
        auto join = std::make_unique<SummaryJoinOp>(
            Materialize(&left), right_info->table, right_index, instance,
            label, Propagates(*right_info));
        join->QualifyInner(right_node->alias);
        out.op = std::move(join);
      } else {
        INSIGHT_ASSIGN_OR_RETURN(Lowered right, LowerRec(*node.children[1]));
        out.op = std::make_unique<SummaryJoinOp>(
            Materialize(&left), Materialize(&right), pred.Clone());
      }
      return out;
    }
    case LogicalKind::kSort: {
      // Rules 3-6, scan form: a single summary sort over a bare scan can
      // read the Summary-BTree in full label order, either direction,
      // instead of sorting — legal only when the statistics prove every
      // tuple carries the instance's object (an index scan yields only
      // indexed tuples, so missing objects would silently drop rows).
      if (node.sort_keys.size() == 1 && options_.use_summary_indexes &&
          node.children[0]->kind == LogicalKind::kScan) {
        const auto* func = dynamic_cast<const SummaryFuncExpr*>(
            node.sort_keys[0].expr.get());
        if (func != nullptr &&
            func->kind() == SummaryFuncKind::kLabelValue) {
          INSIGHT_ASSIGN_OR_RETURN(const RelationInfo* info,
                                   ctx_->Get(node.children[0]->table));
          const SummaryBTree* index =
              info->SummaryIndexFor(func->instance());
          const bool complete =
              info->stats.has_value() &&
              info->AnnotatedRows() == info->stats->num_rows &&
              info->stats->num_rows > 0;
          if (index != nullptr && complete) {
            ClassifierProbe probe;
            probe.label = func->label();
            // As in LowerAccessPath: conventional pointers attach in the
            // scan, backward pointers attach late.
            const bool propagate = Propagates(*info);
            const bool conventional = index->pointer_mode() ==
                                      SummaryBTree::PointerMode::kConventional;
            const bool descending = node.sort_keys[0].descending;
            auto scan = std::make_unique<SummaryIndexScanOp>(
                index, probe, info->mgr, propagate && conventional,
                descending);
            scan->Qualify(node.children[0]->alias);
            Lowered out;
            out.op = std::move(scan);
            out.order = PhysOrder{func->instance(), func->label(), descending};
            out.pending_attach =
                propagate && !conventional ? info->mgr : nullptr;
            return out;
          }
        }
      }
      // "Never under O": a Gather reorders rows across partitions, which
      // would invalidate the order this Sort (or a Rules 3-6 elimination)
      // depends on — lower the whole subtree serially.
      ScopedClear no_parallel(&allow_parallel_);
      INSIGHT_ASSIGN_OR_RETURN(Lowered child, LowerRec(*node.children[0]));
      // Rules 3-6 payoff: a single-key summary sort over an input already
      // ordered by that label, in the same direction, is a no-op.
      if (node.sort_keys.size() == 1 && child.order.has_value() &&
          node.sort_keys[0].descending == child.order->descending) {
        const auto* func = dynamic_cast<const SummaryFuncExpr*>(
            node.sort_keys[0].expr.get());
        if (func != nullptr &&
            func->kind() == SummaryFuncKind::kLabelValue &&
            EqualsIgnoreCase(func->instance(), child.order->instance) &&
            EqualsIgnoreCase(func->label(), child.order->label)) {
          return child;  // Sort eliminated.
        }
      }
      // A data-keyed sort carries a pending attach up (Row::oid survives
      // a spill); a summary-keyed one (O) forces it.
      std::vector<SortKey> keys;
      bool summary_keyed = false;
      for (const SortKey& key : node.sort_keys) {
        keys.push_back(SortKey{key.expr->Clone(), key.descending});
        summary_keyed = summary_keyed || key.expr->IsSummaryBased();
      }
      Lowered out;
      out.pending_attach = summary_keyed ? nullptr : child.pending_attach;
      OpPtr input = summary_keyed ? Materialize(&child) : std::move(child.op);
      out.op = std::make_unique<SortOp>(
          ctx_->exec_context(), std::move(input), std::move(keys),
          options_.sort_mode, options_.sort_memory_budget);
      return out;
    }
    case LogicalKind::kAggregate: {
      INSIGHT_ASSIGN_OR_RETURN(Lowered child, LowerRec(*node.children[0]));
      std::vector<AggregateSpec> aggs;
      for (const AggregateSpec& agg : node.aggregates) {
        aggs.push_back(AggregateSpec{
            agg.kind, agg.arg == nullptr ? nullptr : agg.arg->Clone(),
            agg.output_name});
      }
      Lowered out;
      out.op = std::make_unique<HashAggregateOp>(
          Materialize(&child), node.group_columns, std::move(aggs),
          ctx_->MakeResolver());
      return out;
    }
    case LogicalKind::kDistinct: {
      INSIGHT_ASSIGN_OR_RETURN(Lowered child, LowerRec(*node.children[0]));
      Lowered out;
      out.op = std::make_unique<DistinctOp>(Materialize(&child));
      return out;
    }
    case LogicalKind::kLimit: {
      INSIGHT_ASSIGN_OR_RETURN(Lowered child, LowerRec(*node.children[0]));
      // LIMIT pushdown: walk through 1:1 operators (projections, attaches)
      // — never through a filter, which can drop rows — to an operator
      // that can stop early, and hand it the limit: a parallel gather
      // stops draining, a summary index scan fetches only k hits, a sort
      // keeps a k-row heap. Every operator on that path then emits at most
      // k rows, so its estimate is clamped to k.
      std::vector<PhysicalOperator*> path;
      for (PhysicalOperator* walk = child.op.get(); walk != nullptr;) {
        path.push_back(walk);
        if (HandLimit(walk, node.limit)) {
          for (PhysicalOperator* op : path) {
            if (op->has_estimate()) {
              op->set_estimated_rows(std::min(
                  op->estimated_rows(), static_cast<double>(node.limit)));
            }
          }
          break;
        }
        if (dynamic_cast<ProjectOp*>(walk) == nullptr &&
            dynamic_cast<AttachSummariesOp*>(walk) == nullptr) {
          break;
        }
        auto kids = walk->children();
        walk = kids.size() == 1 ? kids[0] : nullptr;
      }
      Lowered out;
      out.order = child.order;
      out.pending_attach = child.pending_attach;  // LIMIT first, then attach.
      out.op = std::make_unique<LimitOp>(std::move(child.op), node.limit);
      return out;
    }
  }
  return Status::Internal("unreachable");
}

Result<OpPtr> Optimizer::Lower(const LogicalNode& plan) {
  INSIGHT_ASSIGN_OR_RETURN(Lowered lowered, LowerRec(plan));
  // The plan root forces whatever attach is still pending.
  OpPtr root = Materialize(&lowered);
  // Thread the runtime context through every operator: non-scan operators
  // are built with plain constructors, so the tree walk is what hands them
  // the batch-size knob and storage handles.
  root->AttachContext(ctx_->exec_context());
  return root;
}

void Optimizer::CollectReads(const LogicalNode& node, ReadSet* reads) {
  std::vector<std::string> names;
  auto collect = [&](const Expression* expr) {
    if (expr != nullptr) expr->CollectColumns(&names);
  };
  switch (node.kind) {
    case LogicalKind::kSelect:
    case LogicalKind::kSummarySelect:
    case LogicalKind::kJoin:
      collect(node.predicate.get());
      break;
    case LogicalKind::kSummaryJoin:
      collect(node.summary_join_predicate.left_expr.get());
      collect(node.summary_join_predicate.right_expr.get());
      collect(node.summary_join_predicate.merged_expr.get());
      break;
    case LogicalKind::kProject:
      names = node.columns;
      break;
    case LogicalKind::kSort:
      for (const SortKey& key : node.sort_keys) collect(key.expr.get());
      break;
    case LogicalKind::kAggregate:
      names = node.group_columns;
      for (const AggregateSpec& agg : node.aggregates) collect(agg.arg.get());
      break;
    case LogicalKind::kDistinct:
      CollectWholeRows(*node.children[0], reads);
      break;
    case LogicalKind::kScan:
    case LogicalKind::kSummaryFilter:
    case LogicalKind::kLimit:
      break;
  }
  for (const std::string& name : names) reads->columns.insert(ToLower(name));
  for (const LogicalPtr& child : node.children) CollectReads(*child, reads);
}

void Optimizer::CollectWholeRows(const LogicalNode& node, ReadSet* reads) {
  switch (node.kind) {
    case LogicalKind::kProject:
    case LogicalKind::kAggregate:
      return;  // Their output columns are in the read set already.
    case LogicalKind::kScan:
      reads->whole_rows.insert(&node);
      return;
    default:
      for (const LogicalPtr& child : node.children) {
        CollectWholeRows(*child, reads);
      }
  }
}

std::vector<bool> Optimizer::ReadColumns(const LogicalNode& scan,
                                         const Schema& schema) const {
  if (!reads_.has_value() || reads_->whole_rows.count(&scan) > 0) return {};
  const Schema emitted = schema.Qualified(scan.alias);
  std::vector<bool> read(emitted.num_columns());
  for (size_t i = 0; i < read.size(); ++i) {
    read[i] = reads_->columns.count(ToLower(emitted.column(i).name)) > 0;
  }
  return read;
}

Result<OpPtr> Optimizer::Optimize(
    LogicalPtr plan, std::optional<std::vector<std::string>> outputs) {
  INSIGHT_ASSIGN_OR_RETURN(plan, Rewrite(std::move(plan)));
  if (outputs.has_value()) {
    reads_.emplace();
    for (const std::string& name : *outputs) {
      reads_->columns.insert(ToLower(name));
    }
    CollectReads(*plan, &*reads_);
  }
  Result<OpPtr> op = Lower(*plan);
  reads_.reset();
  return op;
}

}  // namespace insight
