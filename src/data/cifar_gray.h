// Procedural 32x32 grayscale image dataset (CIFAR-10 stand-in).
//
// Fig. 8(b-c) of the paper uses grayscale CIFAR-10 purely to visualise
// high-dimensional reconstruction quality. This generator produces 32x32
// grayscale images in [0, 1] with natural-image-like statistics: a smooth
// low-frequency background (random 2D cosine mixture) plus one of several
// foreground shapes (disc, bar, checker patch, triangle) with soft edges
// and additive noise. Eight shape/texture classes stand in for the ten
// CIFAR categories: the dataset does not ship with this repository, and
// the figure needs only natural-image-like inputs, not the labels.
#pragma once

#include <vector>

#include "data/dataset.h"

namespace sqvae::data {

struct CifarGrayDataset {
  Dataset features;         // count x 1024, values in [0, 1]
  std::vector<int> labels;  // class id per row
};

inline constexpr int kCifarGrayClasses = 8;

/// `count` images, classes cycling through the 8 generators.
CifarGrayDataset make_cifar_gray(std::size_t count, sqvae::Rng& rng);

}  // namespace sqvae::data
