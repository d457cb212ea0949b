#include "ratt/obs/ts/quantile.hpp"

#include <algorithm>
#include <cmath>

namespace ratt::obs::ts {

P2Quantile::P2Quantile(double q) : q_(std::clamp(q, 0.0, 1.0)) {}

void P2Quantile::observe(double x) {
  if (count_ < 5) {
    height_[count_++] = x;
    if (count_ == 5) {
      std::sort(height_, height_ + 5);
      for (int i = 0; i < 5; ++i) pos_[i] = i + 1;
      desired_[0] = 1.0;
      desired_[1] = 1.0 + 2.0 * q_;
      desired_[2] = 1.0 + 4.0 * q_;
      desired_[3] = 3.0 + 2.0 * q_;
      desired_[4] = 5.0;
      incr_[0] = 0.0;
      incr_[1] = q_ / 2.0;
      incr_[2] = q_;
      incr_[3] = (1.0 + q_) / 2.0;
      incr_[4] = 1.0;
    }
    return;
  }
  ++count_;

  // Locate the cell containing x, stretching the extremes if needed.
  int k;
  if (x < height_[0]) {
    height_[0] = x;
    k = 0;
  } else if (x >= height_[4]) {
    height_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= height_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += incr_[i];

  // Nudge the three interior markers toward their desired positions.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      const double s = d >= 0.0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P²) height update.
      const double qp =
          height_[i] +
          s / (pos_[i + 1] - pos_[i - 1]) *
              ((pos_[i] - pos_[i - 1] + s) * (height_[i + 1] - height_[i]) /
                   (pos_[i + 1] - pos_[i]) +
               (pos_[i + 1] - pos_[i] - s) * (height_[i] - height_[i - 1]) /
                   (pos_[i] - pos_[i - 1]));
      if (height_[i - 1] < qp && qp < height_[i + 1]) {
        height_[i] = qp;
      } else {  // parabola left the bracket: fall back to linear
        const int j = i + static_cast<int>(s);
        height_[i] += s * (height_[j] - height_[i]) / (pos_[j] - pos_[i]);
      }
      pos_[i] += s;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact nearest-rank on the (small) stored prefix.
    // Insertion sort of at most four values (std::sort's 16-element
    // insertion threshold trips GCC's -Warray-bounds under UBSan).
    double sorted[5] = {};
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t j = i;
      for (; j > 0 && sorted[j - 1] > height_[i]; --j) {
        sorted[j] = sorted[j - 1];
      }
      sorted[j] = height_[i];
    }
    const double rank = q_ * static_cast<double>(count_);
    auto idx = static_cast<std::uint64_t>(std::ceil(rank));
    if (idx == 0) idx = 1;
    if (idx > count_) idx = count_;
    return sorted[idx - 1];
  }
  return height_[2];
}

}  // namespace ratt::obs::ts
