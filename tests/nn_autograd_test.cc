#include "nn/autograd.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "gtest/gtest.h"
#include "nn/gradcheck.h"

namespace tgsim::nn {
namespace {

Rng MakeRng(uint64_t seed = 123) { return Rng(seed); }

TEST(AutogradTest, BackwardOnConstantIsNoop) {
  Var c = Var::Constant(Tensor::Ones(1, 1));
  Backward(c);  // Must not crash; no gradients required anywhere.
  SUCCEED();
}

TEST(AutogradTest, SimpleChainGradient) {
  // f(x) = sum(3 * x) -> df/dx = 3.
  Var x = Var::Param(Tensor::Full(2, 3, 2.0));
  Var loss = Sum(Scale(x, 3.0));
  Backward(loss);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(x.grad().at(r, c), 3.0);
}

TEST(AutogradTest, GradientsAccumulateAcrossBackwardCalls) {
  Var x = Var::Param(Tensor::Ones(1, 1));
  Var l1 = Sum(Scale(x, 2.0));
  Backward(l1);
  Var l2 = Sum(Scale(x, 5.0));
  Backward(l2);
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 7.0);
  x.ZeroGrad();
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 0.0);
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // loss = sum(x*x + x) -> d/dx = 2x + 1.
  Var x = Var::Param(Tensor::Full(1, 1, 3.0));
  Var loss = Sum(Add(Mul(x, x), x));
  Backward(loss);
  EXPECT_DOUBLE_EQ(x.grad().at(0, 0), 7.0);
}

// ---------------------------------------------------------------------------
// Numerical gradient checks for every op.
// ---------------------------------------------------------------------------

struct OpCase {
  std::string name;
  std::function<Var(const std::vector<Var>&)> build;
  std::vector<std::pair<int, int>> shapes;
  bool positive_inputs = false;
};

class OpGradCheckTest : public ::testing::TestWithParam<OpCase> {};

TEST_P(OpGradCheckTest, MatchesNumericalGradient) {
  const OpCase& op = GetParam();
  Rng rng = MakeRng();
  std::vector<Var> params;
  for (auto [r, c] : op.shapes) {
    Tensor t = Tensor::Randn(rng, r, c, 0.7);
    if (op.positive_inputs)
      for (int64_t i = 0; i < t.size(); ++i)
        t.data()[i] = std::fabs(t.data()[i]) + 0.5;
    params.push_back(Var::Param(std::move(t)));
  }
  GradCheckResult res =
      CheckGradients(params, [&]() { return op.build(params); });
  EXPECT_TRUE(res.ok) << op.name << ": max_rel_error=" << res.max_rel_error;
}

std::vector<OpCase> AllOpCases() {
  std::vector<OpCase> cases;
  cases.push_back({"matmul",
                   [](const std::vector<Var>& p) {
                     return Sum(MatMul(p[0], p[1]));
                   },
                   {{3, 4}, {4, 2}}});
  cases.push_back({"add",
                   [](const std::vector<Var>& p) {
                     return Sum(Mul(Add(p[0], p[1]), p[0]));
                   },
                   {{3, 3}, {3, 3}}});
  cases.push_back({"add_broadcast",
                   [](const std::vector<Var>& p) {
                     return Sum(Mul(Add(p[0], p[1]), p[0]));
                   },
                   {{4, 3}, {1, 3}}});
  cases.push_back({"sub",
                   [](const std::vector<Var>& p) {
                     return Sum(Mul(Sub(p[0], p[1]), p[1]));
                   },
                   {{2, 5}, {2, 5}}});
  cases.push_back({"mul_col_broadcast",
                   [](const std::vector<Var>& p) {
                     return Sum(MulColBroadcast(p[0], p[1]));
                   },
                   {{4, 3}, {4, 1}}});
  cases.push_back({"scale_addscalar",
                   [](const std::vector<Var>& p) {
                     return Sum(AddScalar(Scale(p[0], -1.7), 0.3));
                   },
                   {{3, 3}}});
  cases.push_back({"sigmoid",
                   [](const std::vector<Var>& p) {
                     return Sum(Sigmoid(p[0]));
                   },
                   {{3, 4}}});
  cases.push_back({"tanh",
                   [](const std::vector<Var>& p) { return Sum(Tanh(p[0])); },
                   {{3, 4}}});
  cases.push_back({"leaky_relu",
                   [](const std::vector<Var>& p) {
                     return Sum(LeakyRelu(p[0]));
                   },
                   {{5, 5}}});
  cases.push_back({"exp",
                   [](const std::vector<Var>& p) { return Sum(Exp(p[0])); },
                   {{3, 3}}});
  cases.push_back({"log",
                   [](const std::vector<Var>& p) { return Sum(Log(p[0])); },
                   {{3, 3}},
                   /*positive_inputs=*/true});
  cases.push_back({"square",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(p[0]));
                   },
                   {{3, 3}}});
  cases.push_back({"softmax_rows",
                   [](const std::vector<Var>& p) {
                     Tensor w(3, 4);
                     for (int i = 0; i < 12; ++i)
                       w.data()[i] = 0.1 * (i + 1);
                     return Sum(Mul(SoftmaxRows(p[0]), Var::Constant(w)));
                   },
                   {{3, 4}}});
  cases.push_back({"log_softmax_rows",
                   [](const std::vector<Var>& p) {
                     Tensor w(3, 4);
                     for (int i = 0; i < 12; ++i)
                       w.data()[i] = 0.05 * (i + 1);
                     return Sum(Mul(LogSoftmaxRows(p[0]), Var::Constant(w)));
                   },
                   {{3, 4}}});
  cases.push_back({"mean",
                   [](const std::vector<Var>& p) { return Mean(p[0]); },
                   {{4, 4}}});
  cases.push_back({"concat_cols",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(ConcatCols({p[0], p[1]})));
                   },
                   {{3, 2}, {3, 4}}});
  cases.push_back({"concat_rows",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(ConcatRows({p[0], p[1]})));
                   },
                   {{2, 3}, {4, 3}}});
  cases.push_back({"gather_rows",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(GatherRows(p[0], {2, 0, 2, 1})));
                   },
                   {{3, 3}}});
  cases.push_back({"slice_cols",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(SliceCols(p[0], 1, 4)));
                   },
                   {{3, 5}}});
  cases.push_back({"gather_cols",
                   [](const std::vector<Var>& p) {
                     // Duplicate index exercises the scatter-add backward.
                     return Sum(Square(GatherCols(p[0], {3, 0, 3, 1})));
                   },
                   {{3, 4}}});
  cases.push_back({"sampled_softmax_cross_entropy",
                   [](const std::vector<Var>& p) {
                     SparseRowTargets t;
                     t.AppendEntry(1, 0.7);
                     t.AppendEntry(3, 0.3);
                     t.FinishRow();
                     t.FinishRow();  // Empty row: zero contribution.
                     t.AppendEntry(0, 0.5);
                     t.AppendEntry(4, 0.25);
                     t.AppendEntry(2, 0.25);
                     t.FinishRow();
                     return SampledSoftmaxCrossEntropy(p[0], t);
                   },
                   {{3, 5}}});
  cases.push_back({"segment_sum",
                   [](const std::vector<Var>& p) {
                     return Sum(Square(SegmentSum(p[0], {0, 1, 0, 2}, 3)));
                   },
                   {{4, 3}}});
  cases.push_back({"segment_softmax",
                   [](const std::vector<Var>& p) {
                     Tensor w(5, 1);
                     for (int i = 0; i < 5; ++i) w.data()[i] = 0.2 * (i + 1);
                     return Sum(Mul(SegmentSoftmax(p[0], {0, 0, 1, 1, 1}, 2),
                                    Var::Constant(w)));
                   },
                   {{5, 1}}});
  cases.push_back({"transpose",
                   [](const std::vector<Var>& p) {
                     return Sum(MatMul(Transpose(p[0]), p[0]));
                   },
                   {{3, 2}}});
  cases.push_back({"kl_to_standard_normal",
                   [](const std::vector<Var>& p) {
                     return KlToStandardNormal(p[0], p[1]);
                   },
                   {{3, 4}, {3, 4}}});
  cases.push_back({"mse",
                   [](const std::vector<Var>& p) {
                     Tensor target(3, 3, 0.5);
                     return MseLoss(p[0], target);
                   },
                   {{3, 3}}});
  cases.push_back({"row_cross_entropy",
                   [](const std::vector<Var>& p) {
                     Tensor target(3, 4);
                     target.at(0, 1) = 1.0;
                     target.at(1, 0) = 0.5;
                     target.at(1, 3) = 0.5;
                     target.at(2, 2) = 1.0;
                     return RowCrossEntropyWithLogits(p[0], target);
                   },
                   {{3, 4}}});
  cases.push_back({"row_cross_entropy_sparse",
                   [](const std::vector<Var>& p) {
                     SparseRowTargets target;
                     target.AppendEntry(1, 1.0);
                     target.FinishRow();
                     target.FinishRow();  // Empty row.
                     target.AppendEntry(0, 0.25);
                     target.AppendEntry(3, 0.75);
                     target.FinishRow();
                     return RowCrossEntropyWithLogits(p[0], target);
                   },
                   {{3, 4}}});
  cases.push_back({"bce_with_logits",
                   [](const std::vector<Var>& p) {
                     Tensor target(3, 3);
                     target.at(0, 1) = 1.0;
                     target.at(2, 2) = 1.0;
                     return BinaryCrossEntropyWithLogits(p[0], target, 2.5);
                   },
                   {{3, 3}}});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradCheckTest, ::testing::ValuesIn(AllOpCases()),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Forward-value sanity checks.
// ---------------------------------------------------------------------------

TEST(OpValueTest, SoftmaxRowsSumsToOne) {
  Rng rng = MakeRng();
  Tensor x = Tensor::Randn(rng, 5, 7, 3.0);
  Tensor s = x.SoftmaxRows();
  for (int r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 7; ++c) {
      EXPECT_GE(s.at(r, c), 0.0);
      sum += s.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(OpValueTest, SegmentSoftmaxSumsToOnePerSegment) {
  Rng rng = MakeRng();
  Var x = Var::Constant(Tensor::Randn(rng, 6, 1, 2.0));
  std::vector<int> seg = {0, 0, 1, 1, 1, 2};
  Var y = SegmentSoftmax(x, seg, 3);
  std::vector<double> sums(3, 0.0);
  for (int i = 0; i < 6; ++i) sums[seg[i]] += y.value().at(i, 0);
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(OpValueTest, SegmentSoftmaxIsStableForLargeScores) {
  Tensor big(3, 1);
  big.at(0, 0) = 1e4;
  big.at(1, 0) = 1e4 + 1.0;
  big.at(2, 0) = -1e4;
  Var y = SegmentSoftmax(Var::Constant(big), {0, 0, 0}, 1);
  EXPECT_TRUE(std::isfinite(y.value().at(0, 0)));
  EXPECT_GT(y.value().at(1, 0), y.value().at(0, 0));
}

TEST(OpValueTest, SliceColsExtractsColumnRange) {
  Tensor x(2, 4, std::vector<Scalar>{1, 2, 3, 4, 5, 6, 7, 8});
  Var s = SliceCols(Var::Constant(x), 1, 3);
  EXPECT_EQ(s.rows(), 2);
  EXPECT_EQ(s.cols(), 2);
  EXPECT_DOUBLE_EQ(s.value().at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(s.value().at(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(s.value().at(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(s.value().at(1, 1), 7.0);
  // Full-width slice is the identity on values.
  Var full = SliceCols(Var::Constant(x), 0, 4);
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_DOUBLE_EQ(full.value().at(r, c), x.at(r, c));
}

TEST(OpDeathTest, SliceColsRejectsBadRange) {
  Tensor x(2, 4);
  EXPECT_DEATH(SliceCols(Var::Constant(x), 3, 2), "CHECK failed");
  EXPECT_DEATH(SliceCols(Var::Constant(x), 0, 5), "CHECK failed");
}

TEST(OpValueTest, GatherColsPicksColumns) {
  Tensor x(2, 4, std::vector<Scalar>{1, 2, 3, 4, 5, 6, 7, 8});
  Var g = GatherCols(Var::Constant(x), {2, 0, 2});
  EXPECT_EQ(g.rows(), 2);
  EXPECT_EQ(g.cols(), 3);
  EXPECT_DOUBLE_EQ(g.value().at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(g.value().at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.value().at(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(g.value().at(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(g.value().at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(g.value().at(1, 2), 7.0);
}

TEST(OpDeathTest, GatherColsRejectsOutOfRangeIndex) {
  Tensor x(2, 4);
  EXPECT_DEATH(GatherCols(Var::Constant(x), {0, 4}), "CHECK failed");
  EXPECT_DEATH(GatherCols(Var::Constant(x), {-1}), "CHECK failed");
}

TEST(OpValueTest, SampledSoftmaxOverAllColumnsMatchesRowCrossEntropy) {
  // With the candidate set equal to all columns, the sampled-softmax loss
  // is exactly the dense row cross entropy on the scattered targets.
  Rng rng = MakeRng();
  Tensor logits = Tensor::Randn(rng, 3, 4, 1.3);
  SparseRowTargets sparse;
  sparse.AppendEntry(1, 1.0);
  sparse.FinishRow();
  sparse.AppendEntry(0, 0.5);
  sparse.AppendEntry(3, 0.5);
  sparse.FinishRow();
  sparse.FinishRow();  // Empty row.
  Tensor dense(3, 4);
  dense.at(0, 1) = 1.0;
  dense.at(1, 0) = 0.5;
  dense.at(1, 3) = 0.5;
  Var a = SampledSoftmaxCrossEntropy(Var::Constant(logits), sparse);
  Var b = RowCrossEntropyWithLogits(Var::Constant(logits), dense);
  EXPECT_NEAR(a.item(), b.item(), 1e-12);
}

// ---------------------------------------------------------------------------
// The one-node RowCrossEntropyWithLogits against the LogSoftmaxRows -> Mul
// -> Sum -> Scale chain it replaced, which stays here as the reference:
// loss bits and logits-gradient bits must match for dense and sparse
// targets, empty rows, an upstream gradient != 1 and a gradient that
// already holds values (a second Backward without ZeroGrad).
// ---------------------------------------------------------------------------

Var ReferenceRowCrossEntropy(const Var& logits, const Tensor& targets) {
  Var log_p = LogSoftmaxRows(logits);
  Var weighted = Mul(log_p, Var::Constant(targets));
  return Scale(Sum(weighted), -1.0 / static_cast<Scalar>(targets.rows()));
}

bool SameBits(Scalar a, Scalar b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

struct LossRun {
  std::vector<Scalar> losses;
  Tensor logits_grad;
};

/// Two forward/backward passes (no ZeroGrad in between) of
///   Scale(loss(logits) + 1e-3 * KL(mu, logvar), 0.7),
/// so the loss node sees an upstream gradient of 0.7 and the second pass
/// accumulates onto a non-zero logits gradient.
LossRun RunLoss(const Tensor& logits_value, const Tensor& mu_value,
                const std::function<Var(const Var&)>& loss_fn) {
  Var logits = Var::Param(logits_value);
  Var mu = Var::Param(mu_value);
  Var logvar = Var::Param(mu_value * 0.5);
  LossRun run;
  for (int pass = 0; pass < 2; ++pass) {
    Var loss = loss_fn(logits);
    Var total =
        Scale(Add(loss, Scale(KlToStandardNormal(mu, logvar), 1e-3)), 0.7);
    Backward(total);
    run.losses.push_back(loss.item());
    run.losses.push_back(total.item());
  }
  run.logits_grad = logits.grad();
  return run;
}

void ExpectSameRuns(const LossRun& want, const LossRun& got,
                    const char* what) {
  ASSERT_EQ(want.losses.size(), got.losses.size());
  for (size_t i = 0; i < want.losses.size(); ++i)
    EXPECT_TRUE(SameBits(want.losses[i], got.losses[i]))
        << what << " value " << i << ": " << want.losses[i] << " vs "
        << got.losses[i];
  ASSERT_TRUE(want.logits_grad.SameShape(got.logits_grad)) << what;
  for (int64_t i = 0; i < want.logits_grad.size(); ++i)
    EXPECT_TRUE(SameBits(want.logits_grad.data()[i],
                         got.logits_grad.data()[i]))
        << what << " grad[" << i << "]: " << want.logits_grad.data()[i]
        << " vs " << got.logits_grad.data()[i];
}

TEST(RowCrossEntropyTest, FusedNodeMatchesTheFourNodeChainBitForBit) {
  Rng rng = MakeRng();
  const int rows = 9, cols = 37;
  const Tensor logits = Tensor::Randn(rng, rows, cols, 2.0);
  const Tensor mu = Tensor::Randn(rng, rows, 3);

  // Dense: every target nonzero. Sparse: a few weighted entries per row,
  // rows 2 and 6 empty. The sparse form is built in shuffled column order
  // and sorted, as TGAE does.
  Tensor dense(rows, cols);
  for (int64_t i = 0; i < dense.size(); ++i)
    dense.data()[i] = 0.01 + rng.Uniform(0.0, 1.0);
  Tensor scattered(rows, cols);
  SparseRowTargets sparse;
  for (int r = 0; r < rows; ++r) {
    if (r != 2 && r != 6) {
      for (int c : {(5 * r + 11) % cols, r, (3 * r + 29) % cols}) {
        if (scattered.at(r, c) != 0.0) continue;
        const Scalar w = 1.0 / (1.0 + r + c);
        scattered.at(r, c) = w;
        sparse.AppendEntry(c, w);
      }
    }
    sparse.FinishRow();
  }
  sparse.SortRowsByColumn();

  for (const Tensor* targets : {&dense, &scattered}) {
    const char* what = targets == &dense ? "dense" : "sparse";
    const LossRun want = RunLoss(logits, mu, [&](const Var& l) {
      return ReferenceRowCrossEntropy(l, *targets);
    });
    const LossRun got = RunLoss(logits, mu, [&](const Var& l) {
      return RowCrossEntropyWithLogits(l, *targets);
    });
    ExpectSameRuns(want, got, what);
  }
  const LossRun want = RunLoss(logits, mu, [&](const Var& l) {
    return ReferenceRowCrossEntropy(l, scattered);
  });
  const LossRun got = RunLoss(logits, mu, [&](const Var& l) {
    return RowCrossEntropyWithLogits(l, sparse);
  });
  ExpectSameRuns(want, got, "sparse overload");
}

TEST(OpDeathTest, RowCrossEntropyRejectsUnsortedOrDuplicateColumns) {
  Tensor logits(1, 4);
  SparseRowTargets unsorted;
  unsorted.AppendEntry(2, 0.5);
  unsorted.AppendEntry(1, 0.5);
  unsorted.FinishRow();
  EXPECT_DEATH(RowCrossEntropyWithLogits(Var::Constant(logits), unsorted),
               "CHECK failed");
  SparseRowTargets duplicate;
  duplicate.AppendEntry(1, 0.5);
  duplicate.AppendEntry(1, 0.5);
  duplicate.FinishRow();
  EXPECT_DEATH(RowCrossEntropyWithLogits(Var::Constant(logits), duplicate),
               "CHECK failed");
}

TEST(OpDeathTest, SampledSoftmaxRejectsShapeMismatch) {
  Tensor logits(2, 3);
  SparseRowTargets t;
  t.AppendEntry(0, 1.0);
  t.FinishRow();  // Only one row for two logit rows.
  EXPECT_DEATH(SampledSoftmaxCrossEntropy(Var::Constant(logits), t),
               "CHECK failed");
  SparseRowTargets bad_col;
  bad_col.AppendEntry(3, 1.0);  // Column out of range.
  bad_col.FinishRow();
  bad_col.FinishRow();
  EXPECT_DEATH(SampledSoftmaxCrossEntropy(Var::Constant(logits), bad_col),
               "CHECK failed");
}

TEST(OpValueTest, MatMulMatchesManual) {
  Tensor a(2, 3, std::vector<Scalar>{1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, std::vector<Scalar>{7, 8, 9, 10, 11, 12});
  Tensor c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(OpValueTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng = MakeRng();
  Tensor x = Tensor::Randn(rng, 4, 6, 2.0);
  Var ls = LogSoftmaxRows(Var::Constant(x));
  Tensor s = x.SoftmaxRows();
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 6; ++c)
      EXPECT_NEAR(ls.value().at(r, c), std::log(s.at(r, c)), 1e-9);
}

TEST(OpValueTest, BceMatchesNaiveFormula) {
  Tensor logits(1, 2, std::vector<Scalar>{0.3, -1.2});
  Tensor targets(1, 2, std::vector<Scalar>{1.0, 0.0});
  Var loss =
      BinaryCrossEntropyWithLogits(Var::Constant(logits), targets, 1.0);
  auto sigmoid = [](double x) { return 1.0 / (1.0 + std::exp(-x)); };
  double expected =
      (-std::log(sigmoid(0.3)) - std::log(1.0 - sigmoid(-1.2))) / 2.0;
  EXPECT_NEAR(loss.item(), expected, 1e-9);
}

}  // namespace
}  // namespace tgsim::nn
