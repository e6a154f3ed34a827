// Procedural 8x8 Digits dataset.
//
// The paper visualises low-dimensional reconstruction with the scikit-learn
// Digits set (8x8 grayscale, intensities 0..16). This generator rasterises
// ten hand-drawn 8x8 glyph templates and perturbs them (sub-pixel shift,
// intensity jitter, pixel noise) to produce an arbitrarily large labelled
// dataset with the same resolution and value range, since scikit-learn's
// data does not ship with this repository. The reconstruction code path is
// identical to the real dataset's.
#pragma once

#include <vector>

#include "data/dataset.h"

namespace sqvae::data {

struct DigitsDataset {
  Dataset features;          // count x 64, values in [0, 16]
  std::vector<int> labels;   // digit class per row
};

/// `count` jittered digit images, classes cycling 0..9.
DigitsDataset make_digits(std::size_t count, sqvae::Rng& rng);

/// The clean 8x8 template of digit `d` (0..9), values in [0, 16].
std::vector<double> digit_template(int d);

/// Renders an 8x8 (or any square) image as ASCII for examples/benches.
std::string ascii_image(const std::vector<double>& pixels, std::size_t width,
                        double max_value);

}  // namespace sqvae::data
