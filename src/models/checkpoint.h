// Model checkpointing: save/restore the parameter state of any model in
// the zoo (every trainable value lives in ad::Parameter objects exposed by
// quantum_parameters() + classical_parameters()).
//
// Two text formats:
//
//   v1 ("sqvae-checkpoint 1") — parameter values only: a header with the
//   parameter count, then one line per parameter with its shape and
//   row-major values. Every number goes through common/number_text.h:
//   values are written in the shortest form that reads back to the same
//   double, so a save/load round trip is bit-exact, and files written at
//   max_digits10 (the format before the codec) load to the same bits.
//   Non-finite values ("nan", "inf") load too, so a diverged run stays
//   inspectable; serve::LoadedModel refuses to serve one.
//
//   v2 ("sqvae-checkpoint 2") — full training state for exact resume: the
//   v1 parameter block plus the epoch cursor, best-model tracking
//   counters, the complete Adam state (per-group learning rates and m/v
//   moments, step count — see nn::Adam::serialize), and the training Rng
//   state. Restoring a v2 checkpoint makes a resumed Trainer::fit
//   bit-equivalent to a run that was never interrupted, under every
//   simulation backend (see trainer.h).
//
// Loading validates the shape sequence against the target model and
// rejects any non-whitespace trailing content (truncated or concatenated
// files fail loudly instead of loading silently). On any error the target
// objects are left untouched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "common/rng.h"
#include "models/autoencoder.h"
#include "nn/optim.h"

namespace sqvae::models {

/// Training-loop state carried by a v2 checkpoint alongside the model
/// parameters. `optimizer` and `rng` are optional attachments: when
/// non-null they are serialised on save and restored on load; a null
/// pointer writes (or skips) an empty block.
struct TrainState {
  /// Next epoch index to run (an interrupted run resumes here).
  std::size_t next_epoch = 0;

  nn::Adam* optimizer = nullptr;
  sqvae::Rng* rng = nullptr;

  // Best-model tracking (see TrainConfig): the monitored metric's best
  // value so far and the early-stopping counter.
  bool has_best = false;
  std::size_t best_epoch = 0;
  double best_metric = 0.0;
  std::size_t epochs_since_improvement = 0;
};

/// The parameter list in checkpoint order (quantum first, then
/// classical) — the ordering contract every checkpoint format version and
/// every parameter snapshot (serve::LoadedModel) must agree on. Defined
/// once here so consumers cannot drift.
std::vector<ad::Parameter*> checkpoint_parameters(Autoencoder& model);

/// Serialises parameters in order (quantum first, then classical). v1.
std::string checkpoint_to_text(Autoencoder& model);

/// Restores parameters from v1 text into `model`. Returns false (leaving
/// the model untouched) on a header/shape/count mismatch, parse error, or
/// trailing garbage.
bool checkpoint_from_text(const std::string& text, Autoencoder& model);

/// Serialises parameters plus training state (checkpoint v2).
std::string checkpoint_to_text_v2(Autoencoder& model, const TrainState& state);

/// Restores a v2 checkpoint into `model` and `state` (including
/// *state.optimizer / *state.rng when those pointers are set). All-or-
/// nothing: on failure every target is left untouched. A v2 file whose
/// optimizer/rng blocks are empty leaves the attached objects unchanged.
bool checkpoint_from_text_v2(const std::string& text, Autoencoder& model,
                             TrainState& state);

/// Reads the whole file at `path` into `*text`. False when it cannot be
/// opened. Every checkpoint load reads through this.
bool read_file(const std::string& path, std::string* text);

/// Writes `text` to `path` via a sibling temp file + rename, so a kill or
/// write error mid-save never destroys an existing good file. Used by
/// every checkpoint save; exposed for other writers of resume-critical
/// files.
bool write_file_atomic(const std::string& path, const std::string& text);

/// Inference-only load: restores the parameter block of a v1 *or* v2
/// checkpoint into `model` and ignores any v2 training state. Unlike
/// checkpoint_from_text_v2 it requires no attached optimizer/rng objects
/// and accepts files whose Adam moments were stripped (an "optimizer 0"
/// block), so a serving process can load training checkpoints without
/// carrying optimizer machinery. The parameter block is still validated
/// shape-by-shape (all-or-nothing on failure); everything after it in a v2
/// file is deliberately not parsed — a truncated *training* tail must not
/// prevent serving the parameters, which are already complete. v1 files
/// keep the strict trailing-garbage check (they end at the parameters).
bool load_params_only(const std::string& text, Autoencoder& model);

/// File convenience wrapper for load_params_only.
bool load_params_checkpoint(const std::string& path, Autoencoder& model);

/// File convenience wrappers (v1).
bool save_checkpoint(Autoencoder& model, const std::string& path);
bool load_checkpoint(const std::string& path, Autoencoder& model);

/// File convenience wrappers (v2).
bool save_train_checkpoint(const std::string& path, Autoencoder& model,
                           const TrainState& state);
bool load_train_checkpoint(const std::string& path, Autoencoder& model,
                           TrainState& state);

}  // namespace sqvae::models
