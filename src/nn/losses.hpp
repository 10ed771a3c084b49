// Loss functions (Sec. 4.3 of the paper).
//
// `softmax_regression_loss` is the paper's proposed loss (Eq. 6): one
// score per candidate VPP, softmax over the batch of n candidates, and
// the negative log-likelihood of the true connection. Its gradient (Eq. 7)
// weighs high-scoring negatives exponentially and balances positive and
// negative contributions.
//
// `two_class_loss` is the conventional per-candidate two-class
// classification baseline (Eq. 3) the paper argues against; it is kept for
// the Figure-5 ablation. Scores are [n, 2] = (non-connection, connection).
#pragma once

#include <utility>

#include "nn/tensor.hpp"

namespace sma::nn {

struct LossResult {
  double loss = 0.0;
  Tensor grad;  ///< same shape as the scores
};

/// Scores [n] or [n, 1]; `target` is the positive candidate index.
LossResult softmax_regression_loss(const Tensor& scores, int target);

/// Scores [n, 2]; column 0 = s^-, column 1 = s^+; `target` is the positive
/// candidate index.
LossResult two_class_loss(const Tensor& scores, int target);

/// Index of the predicted connection. For [n] scores: argmax. For [n, 2]
/// scores: argmax of (s^+ - s^-), Eq. (2) adapted to the two-class head.
int predict(const Tensor& scores);

/// `predict` over one query's rows of a multi-query score matrix
/// (AttackNet::forward): `scores` points at the query's first score, `n`
/// is its candidate count, `cols` is 1 (Eq. 2 head) or 2 (two-class
/// head). The Tensor overload runs this same comparison chain, so
/// predictions agree at every batch width whenever the scores do.
int predict(const float* scores, int n, int cols);

}  // namespace sma::nn
