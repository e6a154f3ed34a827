#include "autodiff/tape.h"

#include <cassert>
#include <cmath>
#include <utility>

namespace sqvae::ad {

Tape::Node& Tape::node(Var v) {
  assert(v.valid() && static_cast<std::size_t>(v.id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(v.id)];
}

const Tape::Node& Tape::node(Var v) const {
  assert(v.valid() && static_cast<std::size_t>(v.id) < nodes_.size());
  return nodes_[static_cast<std::size_t>(v.id)];
}

Var Tape::push(Matrix value, bool needs_grad,
               std::function<void(Tape&)> backward) {
  Node n;
  n.value = std::move(value);
  n.needs_grad = needs_grad;
  n.backward = std::move(backward);
  nodes_.push_back(std::move(n));
  return Var{static_cast<int>(nodes_.size()) - 1};
}

void Tape::ensure_grad(Var v) {
  Node& n = node(v);
  if (n.grad.rows() != n.value.rows() || n.grad.cols() != n.value.cols()) {
    n.grad = Matrix(n.value.rows(), n.value.cols());
  }
}

Var Tape::constant(Matrix value) { return push(std::move(value), false, {}); }

Var Tape::leaf(Parameter* p) {
  assert(p != nullptr);
  if (values_only_) return constant(p->value);
  Var v = push(p->value, true, {});
  node(v).param = p;
  return v;
}

const Matrix& Tape::value(Var v) const { return node(v).value; }

const Matrix& Tape::grad(Var v) const {
  const Node& n = node(v);
  return n.grad;
}

bool Tape::requires_grad(Var v) const { return node(v).needs_grad; }

void Tape::accum_grad(Var v, const Matrix& g) {
  Node& n = node(v);
  if (!n.needs_grad) return;
  assert(g.rows() == n.value.rows() && g.cols() == n.value.cols());
  ensure_grad(v);
  n.grad += g;
}

Var Tape::matmul(Var a, Var b) {
  const Matrix& av = value(a);
  const Matrix& bv = value(b);
  const bool ng = requires_grad(a) || requires_grad(b);
  Var out = push(av.matmul(bv), ng, {});
  if (ng) {
    node(out).backward = [a, b, out](Tape& t) {
      const Matrix& g = t.node(out).grad;
      if (t.requires_grad(a)) {
        t.accum_grad(a, g.matmul_transposed(t.value(b)));
      }
      if (t.requires_grad(b)) {
        t.accum_grad(b, t.value(a).transposed_matmul(g));
      }
    };
  }
  return out;
}

Var Tape::add(Var a, Var b) {
  const Matrix& av = value(a);
  const Matrix& bv = value(b);
  assert(av.rows() == bv.rows() && av.cols() == bv.cols());
  const bool ng = requires_grad(a) || requires_grad(b);
  Var out = push(av + bv, ng, {});
  if (ng) {
    node(out).backward = [a, b, out](Tape& t) {
      const Matrix& g = t.node(out).grad;
      t.accum_grad(a, g);
      t.accum_grad(b, g);
    };
  }
  return out;
}

Var Tape::add_bias(Var a, Var bias) {
  const Matrix& av = value(a);
  const Matrix& bv = value(bias);
  assert(bv.rows() == 1 && bv.cols() == av.cols());
  Matrix out_v = av;
  for (std::size_t r = 0; r < av.rows(); ++r) {
    for (std::size_t c = 0; c < av.cols(); ++c) out_v(r, c) += bv(0, c);
  }
  const bool ng = requires_grad(a) || requires_grad(bias);
  Var out = push(std::move(out_v), ng, {});
  if (ng) {
    node(out).backward = [a, bias, out](Tape& t) {
      const Matrix& g = t.node(out).grad;
      t.accum_grad(a, g);
      if (t.requires_grad(bias)) {
        Matrix bg(1, g.cols());
        for (std::size_t r = 0; r < g.rows(); ++r) {
          for (std::size_t c = 0; c < g.cols(); ++c) bg(0, c) += g(r, c);
        }
        t.accum_grad(bias, bg);
      }
    };
  }
  return out;
}

Var Tape::sub(Var a, Var b) {
  const Matrix& av = value(a);
  const Matrix& bv = value(b);
  assert(av.rows() == bv.rows() && av.cols() == bv.cols());
  const bool ng = requires_grad(a) || requires_grad(b);
  Var out = push(av - bv, ng, {});
  if (ng) {
    node(out).backward = [a, b, out](Tape& t) {
      const Matrix& g = t.node(out).grad;
      t.accum_grad(a, g);
      if (t.requires_grad(b)) {
        Matrix neg = g;
        neg *= -1.0;
        t.accum_grad(b, neg);
      }
    };
  }
  return out;
}

Var Tape::mul(Var a, Var b) {
  const Matrix& av = value(a);
  const Matrix& bv = value(b);
  assert(av.rows() == bv.rows() && av.cols() == bv.cols());
  Matrix out_v = av;
  for (std::size_t i = 0; i < out_v.size(); ++i) out_v[i] *= bv[i];
  const bool ng = requires_grad(a) || requires_grad(b);
  Var out = push(std::move(out_v), ng, {});
  if (ng) {
    node(out).backward = [a, b, out](Tape& t) {
      const Matrix& g = t.node(out).grad;
      if (t.requires_grad(a)) {
        Matrix ga = g;
        const Matrix& bv2 = t.value(b);
        for (std::size_t i = 0; i < ga.size(); ++i) ga[i] *= bv2[i];
        t.accum_grad(a, ga);
      }
      if (t.requires_grad(b)) {
        Matrix gb = g;
        const Matrix& av2 = t.value(a);
        for (std::size_t i = 0; i < gb.size(); ++i) gb[i] *= av2[i];
        t.accum_grad(b, gb);
      }
    };
  }
  return out;
}

Var Tape::scale(Var a, double s) {
  const bool ng = requires_grad(a);
  Var out = push(value(a) * s, ng, {});
  if (ng) {
    node(out).backward = [a, out, s](Tape& t) {
      t.accum_grad(a, t.node(out).grad * s);
    };
  }
  return out;
}

Var Tape::relu(Var a) {
  Matrix out_v = value(a);
  for (std::size_t i = 0; i < out_v.size(); ++i) {
    if (out_v[i] < 0.0) out_v[i] = 0.0;
  }
  const bool ng = requires_grad(a);
  Var out = push(std::move(out_v), ng, {});
  if (ng) {
    node(out).backward = [a, out](Tape& t) {
      Matrix g = t.node(out).grad;
      const Matrix& av = t.value(a);
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (av[i] <= 0.0) g[i] = 0.0;
      }
      t.accum_grad(a, g);
    };
  }
  return out;
}

Var Tape::sigmoid(Var a) {
  Matrix out_v = value(a);
  for (std::size_t i = 0; i < out_v.size(); ++i) {
    out_v[i] = 1.0 / (1.0 + std::exp(-out_v[i]));
  }
  const bool ng = requires_grad(a);
  Var out = push(std::move(out_v), ng, {});
  if (ng) {
    node(out).backward = [a, out](Tape& t) {
      Matrix g = t.node(out).grad;
      const Matrix& ov = t.value(out);
      for (std::size_t i = 0; i < g.size(); ++i) {
        g[i] *= ov[i] * (1.0 - ov[i]);
      }
      t.accum_grad(a, g);
    };
  }
  return out;
}

Var Tape::tanh_(Var a) {
  Matrix out_v = value(a);
  for (std::size_t i = 0; i < out_v.size(); ++i) out_v[i] = std::tanh(out_v[i]);
  const bool ng = requires_grad(a);
  Var out = push(std::move(out_v), ng, {});
  if (ng) {
    node(out).backward = [a, out](Tape& t) {
      Matrix g = t.node(out).grad;
      const Matrix& ov = t.value(out);
      for (std::size_t i = 0; i < g.size(); ++i) g[i] *= 1.0 - ov[i] * ov[i];
      t.accum_grad(a, g);
    };
  }
  return out;
}

Var Tape::exp_(Var a) {
  Matrix out_v = value(a);
  for (std::size_t i = 0; i < out_v.size(); ++i) out_v[i] = std::exp(out_v[i]);
  const bool ng = requires_grad(a);
  Var out = push(std::move(out_v), ng, {});
  if (ng) {
    node(out).backward = [a, out](Tape& t) {
      Matrix g = t.node(out).grad;
      const Matrix& ov = t.value(out);
      for (std::size_t i = 0; i < g.size(); ++i) g[i] *= ov[i];
      t.accum_grad(a, g);
    };
  }
  return out;
}

Var Tape::concat_cols(const std::vector<Var>& parts) {
  assert(!parts.empty());
  const std::size_t rows = value(parts[0]).rows();
  std::size_t cols = 0;
  bool ng = false;
  for (Var p : parts) {
    assert(value(p).rows() == rows);
    cols += value(p).cols();
    ng = ng || requires_grad(p);
  }
  Matrix out_v(rows, cols);
  std::size_t offset = 0;
  for (Var p : parts) {
    const Matrix& pv = value(p);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < pv.cols(); ++c) {
        out_v(r, offset + c) = pv(r, c);
      }
    }
    offset += pv.cols();
  }
  Var out = push(std::move(out_v), ng, {});
  if (ng) {
    std::vector<Var> parts_copy = parts;
    node(out).backward = [parts_copy, out](Tape& t) {
      const Matrix& g = t.node(out).grad;
      std::size_t off = 0;
      for (Var p : parts_copy) {
        const Matrix& pv = t.value(p);
        if (t.requires_grad(p)) {
          Matrix pg(pv.rows(), pv.cols());
          for (std::size_t r = 0; r < pv.rows(); ++r) {
            for (std::size_t c = 0; c < pv.cols(); ++c) {
              pg(r, c) = g(r, off + c);
            }
          }
          t.accum_grad(p, pg);
        }
        off += pv.cols();
      }
    };
  }
  return out;
}

Var Tape::slice_cols(Var a, std::size_t start, std::size_t len) {
  const Matrix& av = value(a);
  assert(start + len <= av.cols());
  Matrix out_v(av.rows(), len);
  for (std::size_t r = 0; r < av.rows(); ++r) {
    for (std::size_t c = 0; c < len; ++c) out_v(r, c) = av(r, start + c);
  }
  const bool ng = requires_grad(a);
  Var out = push(std::move(out_v), ng, {});
  if (ng) {
    node(out).backward = [a, out, start, len](Tape& t) {
      const Matrix& g = t.node(out).grad;
      const Matrix& av2 = t.value(a);
      Matrix ag(av2.rows(), av2.cols());
      for (std::size_t r = 0; r < av2.rows(); ++r) {
        for (std::size_t c = 0; c < len; ++c) ag(r, start + c) = g(r, c);
      }
      t.accum_grad(a, ag);
    };
  }
  return out;
}

Var Tape::mse_loss(Var pred, const Matrix& target) {
  const Matrix& pv = value(pred);
  assert(pv.rows() == target.rows() && pv.cols() == target.cols());
  const double n = static_cast<double>(pv.size());
  double loss = 0.0;
  for (std::size_t i = 0; i < pv.size(); ++i) {
    const double d = pv[i] - target[i];
    loss += d * d;
  }
  Matrix out_v(1, 1);
  out_v(0, 0) = loss / n;
  const bool ng = requires_grad(pred);
  Var out = push(std::move(out_v), ng, {});
  if (ng) {
    Matrix target_copy = target;
    node(out).backward = [pred, out, target_copy, n](Tape& t) {
      const double g = t.node(out).grad(0, 0);
      const Matrix& pv2 = t.value(pred);
      Matrix pg(pv2.rows(), pv2.cols());
      for (std::size_t i = 0; i < pv2.size(); ++i) {
        pg[i] = g * 2.0 * (pv2[i] - target_copy[i]) / n;
      }
      t.accum_grad(pred, pg);
    };
  }
  return out;
}

Var Tape::kl_gaussian(Var mu, Var logvar) {
  const Matrix& mv = value(mu);
  const Matrix& lv = value(logvar);
  assert(mv.rows() == lv.rows() && mv.cols() == lv.cols());
  const double batch = static_cast<double>(mv.rows());
  double loss = 0.0;
  for (std::size_t i = 0; i < mv.size(); ++i) {
    loss += 0.5 * (std::exp(lv[i]) + mv[i] * mv[i] - 1.0 - lv[i]);
  }
  Matrix out_v(1, 1);
  out_v(0, 0) = loss / batch;
  const bool ng = requires_grad(mu) || requires_grad(logvar);
  Var out = push(std::move(out_v), ng, {});
  if (ng) {
    node(out).backward = [mu, logvar, out, batch](Tape& t) {
      const double g = t.node(out).grad(0, 0);
      const Matrix& mv2 = t.value(mu);
      const Matrix& lv2 = t.value(logvar);
      if (t.requires_grad(mu)) {
        Matrix mg(mv2.rows(), mv2.cols());
        for (std::size_t i = 0; i < mv2.size(); ++i) {
          mg[i] = g * mv2[i] / batch;
        }
        t.accum_grad(mu, mg);
      }
      if (t.requires_grad(logvar)) {
        Matrix lg(lv2.rows(), lv2.cols());
        for (std::size_t i = 0; i < lv2.size(); ++i) {
          lg[i] = g * 0.5 * (std::exp(lv2[i]) - 1.0) / batch;
        }
        t.accum_grad(logvar, lg);
      }
    };
  }
  return out;
}

Var Tape::custom(const std::vector<Var>& inputs, Matrix value,
                 CustomBackward backward) {
  bool ng = false;
  for (Var v : inputs) ng = ng || requires_grad(v);
  Var out = push(std::move(value), ng, {});
  if (ng) {
    node(out).backward = [out, backward = std::move(backward)](Tape& t) {
      backward(t, t.node(out).grad);
    };
  }
  return out;
}

void Tape::backward(Var loss) {
  Node& ln = node(loss);
  assert(ln.value.rows() == 1 && ln.value.cols() == 1 &&
         "backward() must start from a scalar node");
  ensure_grad(loss);
  ln.grad(0, 0) = 1.0;
  for (std::size_t i = nodes_.size(); i > 0; --i) {
    Node& n = nodes_[i - 1];
    if (!n.needs_grad) continue;
    ensure_grad(Var{static_cast<int>(i - 1)});
    if (n.backward) n.backward(*this);
    if (n.param != nullptr) {
      if (grad_sink_ != nullptr) {
        grad_sink_->accumulate(n.param, n.grad);
      } else {
        n.param->grad += n.grad;
      }
    }
  }
}

}  // namespace sqvae::ad
