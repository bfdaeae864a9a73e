#include "query/vectorized.h"

#include <algorithm>

#include "index/key_search.h"

namespace hail {

namespace {

/// Dispatches a CompareOp to a per-value match lambda once, then hands it
/// to `run` (the loop shape). Every op is expressed through (v < lit) and
/// (v == lit), replicating the interpreted path's three-way mapping
/// `a < b ? -1 : (a == b ? 0 : 1)` — which classifies an unordered (NaN)
/// pair as "greater", so e.g. kGt must match NaN even though `v > lit`
/// would not.
template <typename L, typename F>
void WithComparator(CompareOp op, L lit, F run) {
  switch (op) {
    case CompareOp::kEq: run([lit](L v) { return v == lit; }); break;
    case CompareOp::kNe: run([lit](L v) { return !(v == lit); }); break;
    case CompareOp::kLt: run([lit](L v) { return v < lit; }); break;
    case CompareOp::kLe: run([lit](L v) { return v < lit || v == lit; }); break;
    case CompareOp::kGt:
      run([lit](L v) { return !(v < lit) && !(v == lit); });
      break;
    case CompareOp::kGe: run([lit](L v) { return !(v < lit); }); break;
    case CompareOp::kBetween: break;  // decomposed at compile time
  }
}

/// Tight dense loop over the span appending qualifying rows. T is the
/// storage type, L the comparison type (int64_t or double) chosen by the
/// compiled kind.
template <typename T, typename L>
void DenseFilter(const ColumnSpan<T>& col, CompareOp op, L lit,
                 uint32_t begin, uint32_t end, std::vector<uint32_t>* out) {
  WithComparator<L>(op, lit, [&](auto pred) {
    for (uint32_t r = begin; r < end; ++r) {
      if (pred(static_cast<L>(col[r]))) out->push_back(r);
    }
  });
}

/// In-place compaction of an existing selection vector.
template <typename T, typename L>
void SparseFilter(const ColumnSpan<T>& col, CompareOp op, L lit,
                  std::vector<uint32_t>* sel) {
  WithComparator<L>(op, lit, [&](auto pred) {
    size_t w = 0;
    for (uint32_t r : *sel) {
      if (pred(static_cast<L>(col[r]))) (*sel)[w++] = r;
    }
    sel->resize(w);
  });
}

}  // namespace

Result<CompiledPredicate::CompiledTerm> CompiledPredicate::CompileTerm(
    int column, CompareOp op, const Value& literal, FieldType column_type) {
  CompiledTerm t;
  t.column = column;
  t.op = op;
  if (column_type == FieldType::kString) {
    if (!literal.is_string()) {
      return Status::InvalidArgument(
          "numeric literal against string column @" +
          std::to_string(column + 1));
    }
    t.kind = Kind::kString;
    t.lit_s = literal.as_string();
    return t;
  }
  if (literal.is_string()) {
    return Status::InvalidArgument("string literal against numeric column @" +
                                   std::to_string(column + 1));
  }
  const bool integral_literal = key_search::IsIntegral(literal);
  switch (column_type) {
    case FieldType::kInt32:
    case FieldType::kDate:
      t.kind = integral_literal ? Kind::kI32VsI64 : Kind::kI32VsF64;
      break;
    case FieldType::kInt64:
      t.kind = integral_literal ? Kind::kI64VsI64 : Kind::kI64VsF64;
      break;
    case FieldType::kDouble:
      t.kind = Kind::kF64;
      break;
    case FieldType::kString:
      break;  // unreachable
  }
  if (t.kind == Kind::kI32VsI64 || t.kind == Kind::kI64VsI64) {
    t.lit_i = key_search::AsInt64(literal);
  } else {
    t.lit_d = literal.AsNumeric();
  }
  return t;
}

Result<CompiledPredicate> CompiledPredicate::Compile(const Predicate& pred,
                                                     const Schema& schema) {
  CompiledPredicate out;
  out.terms_.reserve(pred.terms().size());
  for (const PredicateTerm& term : pred.terms()) {
    if (term.column < 0 || term.column >= schema.num_fields()) {
      return Status::InvalidArgument("predicate references attribute @" +
                                     std::to_string(term.column + 1) +
                                     " outside the schema");
    }
    const FieldType type = schema.field(term.column).type;
    if (term.op == CompareOp::kBetween) {
      // Two independent comparisons, mirroring the interpreted
      // `cmp(v, lo) >= 0 && cmp(v, hi) <= 0`.
      HAIL_ASSIGN_OR_RETURN(
          CompiledTerm lo,
          CompileTerm(term.column, CompareOp::kGe, term.literal, type));
      HAIL_ASSIGN_OR_RETURN(
          CompiledTerm hi,
          CompileTerm(term.column, CompareOp::kLe, term.literal_hi, type));
      out.terms_.push_back(std::move(lo));
      out.terms_.push_back(std::move(hi));
    } else {
      HAIL_ASSIGN_OR_RETURN(
          CompiledTerm t,
          CompileTerm(term.column, term.op, term.literal, type));
      out.terms_.push_back(std::move(t));
    }
  }
  return out;
}

Status CompiledPredicate::ApplyFixedTerm(const PaxBlockView& view,
                                         const CompiledTerm& term,
                                         RowRange range, bool dense,
                                         SelectionVector* sel) const {
  std::vector<uint32_t>& rows = sel->mutable_rows();
  switch (term.kind) {
    case Kind::kI32VsI64: {
      HAIL_ASSIGN_OR_RETURN(ColumnSpan<int32_t> col,
                            view.Int32Span(term.column));
      dense ? DenseFilter<int32_t, int64_t>(col, term.op, term.lit_i,
                                            range.begin, range.end, &rows)
            : SparseFilter<int32_t, int64_t>(col, term.op, term.lit_i, &rows);
      break;
    }
    case Kind::kI32VsF64: {
      HAIL_ASSIGN_OR_RETURN(ColumnSpan<int32_t> col,
                            view.Int32Span(term.column));
      dense ? DenseFilter<int32_t, double>(col, term.op, term.lit_d,
                                           range.begin, range.end, &rows)
            : SparseFilter<int32_t, double>(col, term.op, term.lit_d, &rows);
      break;
    }
    case Kind::kI64VsI64: {
      HAIL_ASSIGN_OR_RETURN(ColumnSpan<int64_t> col,
                            view.Int64Span(term.column));
      dense ? DenseFilter<int64_t, int64_t>(col, term.op, term.lit_i,
                                            range.begin, range.end, &rows)
            : SparseFilter<int64_t, int64_t>(col, term.op, term.lit_i, &rows);
      break;
    }
    case Kind::kI64VsF64: {
      HAIL_ASSIGN_OR_RETURN(ColumnSpan<int64_t> col,
                            view.Int64Span(term.column));
      dense ? DenseFilter<int64_t, double>(col, term.op, term.lit_d,
                                           range.begin, range.end, &rows)
            : SparseFilter<int64_t, double>(col, term.op, term.lit_d, &rows);
      break;
    }
    case Kind::kF64: {
      HAIL_ASSIGN_OR_RETURN(ColumnSpan<double> col,
                            view.DoubleSpan(term.column));
      dense ? DenseFilter<double, double>(col, term.op, term.lit_d,
                                          range.begin, range.end, &rows)
            : SparseFilter<double, double>(col, term.op, term.lit_d, &rows);
      break;
    }
    case Kind::kString:
      return Status::InvalidArgument("string term in fixed kernel");
  }
  return Status::OK();
}

Status CompiledPredicate::ApplyStringTerm(const PaxBlockView& view,
                                          const CompiledTerm& term,
                                          RowRange range, bool dense,
                                          SelectionVector* sel) const {
  HAIL_ASSIGN_OR_RETURN(VarlenCursor cursor,
                        view.OpenVarlenCursor(term.column));
  std::vector<uint32_t>& rows = sel->mutable_rows();
  if (dense) {
    for (uint32_t r = range.begin; r < range.end; ++r) {
      HAIL_ASSIGN_OR_RETURN(std::string_view s, cursor.Get(r));
      if (OpMatchesCompare(ThreeWayCompareStrings(s, term.lit_s), term.op)) {
        rows.push_back(r);
      }
    }
    return Status::OK();
  }
  size_t w = 0;
  for (uint32_t r : rows) {
    // Selection vectors are ascending, so the cursor decodes each
    // candidate partition in one forward pass.
    HAIL_ASSIGN_OR_RETURN(std::string_view s, cursor.Get(r));
    if (OpMatchesCompare(ThreeWayCompareStrings(s, term.lit_s), term.op)) {
      rows[w++] = r;
    }
  }
  rows.resize(w);
  return Status::OK();
}

Status CompiledPredicate::FilterBlock(const PaxBlockView& view, RowRange range,
                                      SelectionVector* sel) const {
  sel->Clear();
  range.end = std::min(range.end, view.num_records());
  if (range.empty()) return Status::OK();
  if (terms_.empty()) {
    sel->FillRange(range.begin, range.end);
    return Status::OK();
  }
  // Cheap terms first — typed span loads narrow the candidate set before
  // any varlen value is decoded. Order within each phase is the term
  // order, so the conjunction's result set is identical either way.
  bool dense = true;
  for (const CompiledTerm& term : terms_) {
    if (!IsCheapTerm(term)) continue;
    HAIL_RETURN_NOT_OK(ApplyFixedTerm(view, term, range, dense, sel));
    dense = false;
    if (sel->empty()) return Status::OK();
  }
  for (const CompiledTerm& term : terms_) {
    if (IsCheapTerm(term)) continue;
    HAIL_RETURN_NOT_OK(ApplyStringTerm(view, term, range, dense, sel));
    dense = false;
    if (sel->empty()) return Status::OK();
  }
  return Status::OK();
}

Status CompiledPredicate::RefineCandidates(const PaxBlockView& view,
                                           SelectionVector* sel) const {
  if (terms_.empty() || sel->empty()) return Status::OK();
  // The dense flag is always false: the selection is the candidate set.
  for (const CompiledTerm& term : terms_) {
    if (!IsCheapTerm(term)) continue;
    HAIL_RETURN_NOT_OK(ApplyFixedTerm(view, term, RowRange{}, false, sel));
    if (sel->empty()) return Status::OK();
  }
  for (const CompiledTerm& term : terms_) {
    if (IsCheapTerm(term)) continue;
    HAIL_RETURN_NOT_OK(ApplyStringTerm(view, term, RowRange{}, false, sel));
    if (sel->empty()) return Status::OK();
  }
  return Status::OK();
}

bool CompiledPredicate::MatchesRow(const std::vector<Value>& row) const {
  for (const CompiledTerm& term : terms_) {
    if (term.column < 0 ||
        term.column >= static_cast<int>(row.size())) {
      return false;
    }
    const Value& v = row[static_cast<size_t>(term.column)];
    bool match = false;
    switch (term.kind) {
      case Kind::kString: {
        if (!v.is_string()) return false;
        match = OpMatchesCompare(ThreeWayCompareStrings(v.as_string(), term.lit_s),
                               term.op);
        break;
      }
      case Kind::kI32VsI64:
      case Kind::kI64VsI64: {
        if (v.is_string()) return false;
        if (key_search::IsIntegral(v)) {
          const int64_t w = key_search::AsInt64(v);
          match = OpMatchesCompare(
              w < term.lit_i ? -1 : (w == term.lit_i ? 0 : 1), term.op);
        } else {
          // Double row value vs integral literal widens to double, exactly
          // like CompareValues.
          const double w = v.AsNumeric();
          const double lit = static_cast<double>(term.lit_i);
          match = OpMatchesCompare(w < lit ? -1 : (w == lit ? 0 : 1), term.op);
        }
        break;
      }
      case Kind::kI32VsF64:
      case Kind::kI64VsF64:
      case Kind::kF64: {
        if (v.is_string()) return false;
        const double w = v.AsNumeric();
        match = OpMatchesCompare(
            w < term.lit_d ? -1 : (w == term.lit_d ? 0 : 1), term.op);
        break;
      }
    }
    if (!match) return false;
  }
  return true;
}

bool CompiledPredicate::MatchesFields(
    const std::vector<FieldScalar>& fields) const {
  for (const CompiledTerm& term : terms_) {
    const FieldScalar& f = fields[static_cast<size_t>(term.column)];
    int cmp = 0;
    switch (term.kind) {
      case Kind::kString:
        cmp = ThreeWayCompareStrings(f.s, term.lit_s);
        break;
      case Kind::kI32VsI64:
      case Kind::kI64VsI64:
        cmp = f.i < term.lit_i ? -1 : (f.i == term.lit_i ? 0 : 1);
        break;
      case Kind::kI32VsF64:
      case Kind::kI64VsF64: {
        const double w = static_cast<double>(f.i);
        cmp = w < term.lit_d ? -1 : (w == term.lit_d ? 0 : 1);
        break;
      }
      case Kind::kF64:
        cmp = f.d < term.lit_d ? -1 : (f.d == term.lit_d ? 0 : 1);
        break;
    }
    if (!OpMatchesCompare(cmp, term.op)) return false;
  }
  return true;
}

}  // namespace hail
