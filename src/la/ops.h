#ifndef SUBREC_LA_OPS_H_
#define SUBREC_LA_OPS_H_

#include <cstddef>
#include <vector>

#include "la/matrix.h"

namespace subrec::la {

/// C = A * B. Shapes must agree (A: m x k, B: k x n).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A^T * B (A: k x m, B: k x n -> C: m x n).
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// C = A * B^T (A: m x k, B: n x k -> C: m x n).
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// Transposed copy.
Matrix Transpose(const Matrix& a);

// --- destination-passing variants ------------------------------------
//
// Each XInto(args, out) computes exactly what X(args) returns — the same
// floating-point sequence, element for element — but writes into `out`,
// resizing it capacity-preservingly so a steady-state caller (the autodiff
// tape's node arena) reuses one heap block instead of allocating per call.
// `out` must not alias any input.

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out);
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* out);
void TransposeInto(const Matrix& a, Matrix* out);
void AddInto(const Matrix& a, const Matrix& b, Matrix* out);
void SubInto(const Matrix& a, const Matrix& b, Matrix* out);
void HadamardInto(const Matrix& a, const Matrix& b, Matrix* out);
void ScaleInto(const Matrix& a, double alpha, Matrix* out);
void AddRowBroadcastInto(const Matrix& a, const Matrix& bias, Matrix* out);
void TanhInto(const Matrix& a, Matrix* out);
void SigmoidInto(const Matrix& a, Matrix* out);
void ReluInto(const Matrix& a, Matrix* out);
void RowSoftmaxInto(const Matrix& a, Matrix* out);
void ColMeanInto(const Matrix& a, Matrix* out);

/// Elementwise sum / difference / product; shapes must match.
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// a += alpha * b (shapes must match).
void Axpy(double alpha, const Matrix& b, Matrix& a);

/// Scaled copy.
Matrix Scale(const Matrix& a, double alpha);

/// Adds row-vector `bias` (1 x n) to every row of `a` (m x n).
Matrix AddRowBroadcast(const Matrix& a, const Matrix& bias);

/// Elementwise maps.
Matrix Tanh(const Matrix& a);
Matrix Sigmoid(const Matrix& a);
Matrix Relu(const Matrix& a);
Matrix Exp(const Matrix& a);

/// Numerically stable softmax applied to each row independently.
Matrix RowSoftmax(const Matrix& a);

/// Sum of all entries.
double Sum(const Matrix& a);

/// 1 x cols row of column means.
Matrix ColMean(const Matrix& a);

/// Dot product of two equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Dot product over raw spans — the same single definition the vector
/// overload forwards to, so callers holding contiguous matrix rows (the
/// frozen scorer) get bit-identical results by construction. Plain
/// ascending multiply-add; never auto-vectorized into a reassociated
/// reduction (that needs -fassociative-math, which this project never
/// enables).
double Dot(const double* a, const double* b, size_t n);

/// L2 norm of a vector.
double Norm2(const std::vector<double>& a);

/// Scales `a` in place to unit L2 norm (no-op on the zero vector).
void NormalizeL2(std::vector<double>& a);

/// Euclidean distance between two equal-length vectors.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Cosine similarity in [-1,1]; 0 if either vector is zero.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);

/// a += alpha * b for flat vectors.
void AxpyVec(double alpha, const std::vector<double>& b,
             std::vector<double>& a);

/// Indices of the k largest values of `scores`, descending (stable on ties
/// by smaller index first). k is clamped to scores.size().
std::vector<size_t> TopKIndices(const std::vector<double>& scores, size_t k);

/// Numerically stable in-place softmax of a flat vector.
void SoftmaxInPlace(std::vector<double>& v);

/// Stacks equal-length vectors as the rows of a matrix.
Matrix StackRows(const std::vector<std::vector<double>>& rows);

}  // namespace subrec::la

#endif  // SUBREC_LA_OPS_H_
