//! A small multi-layer perceptron with SGD training.
//!
//! The stand-in for Pensieve's policy network (§5.2): a feed-forward net
//! with ReLU hidden layers and a linear output, trained here by imitation
//! (regression onto oracle action scores). Everything is plain `Vec<f64>`
//! math — no BLAS, no autograd.

use fiveg_simcore::RngStream;

/// One dense layer, its weights flat and row-major: row `o`, the weights
/// from every input to output `o`, is `weights[o * inputs..(o + 1) * inputs]`.
/// One contiguous buffer per layer keeps the training sweeps on plain
/// slices, with no per-row pointer chase or double bounds check.
#[derive(Debug, Clone)]
struct Layer {
    weights: Vec<f64>,
    /// Row width: the layer's input dimension.
    inputs: usize,
    biases: Vec<f64>,
}

impl Layer {
    fn new(inputs: usize, outputs: usize, rng: &mut RngStream) -> Self {
        // He initialization for ReLU nets, drawn row by row.
        let scale = (2.0 / inputs as f64).sqrt();
        Layer {
            weights: (0..outputs * inputs)
                .map(|_| rng.normal(0.0, scale))
                .collect(),
            inputs,
            biases: vec![0.0; outputs],
        }
    }

    fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.forward_into(input, &mut out);
        out
    }

    /// [`Layer::forward`] into a reused buffer: same inner products, same
    /// summation order, no allocation when `out` has capacity.
    fn forward_into(&self, input: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.weights
                .chunks_exact(self.inputs)
                .zip(&self.biases)
                .map(|(w, b)| w.iter().zip(input).map(|(wi, xi)| wi * xi).sum::<f64>() + b),
        );
    }
}

/// Reusable per-step training buffers: one SGD step on the pensieve-sized
/// nets costs ~10 small `Vec` allocations if taken naively, which rivals
/// the arithmetic itself. [`Mlp::train`] allocates this once and reuses it
/// for every step; the arithmetic (and therefore the trained weights) is
/// bit-identical to the allocating path. The backward pass visits each
/// weight row once: it adds the row's share to `prev_delta`, then applies
/// the row's SGD update.
#[derive(Debug, Default)]
struct TrainScratch {
    /// `activations[0]` = input; `activations[i + 1]` = layer `i` output.
    activations: Vec<Vec<f64>>,
    /// Pre-activation values per layer (for the ReLU derivative).
    pre_acts: Vec<Vec<f64>>,
    /// Backprop error for the current layer.
    delta: Vec<f64>,
    /// Backprop error for the previous layer, taken from each weight row
    /// before that row is updated.
    prev_delta: Vec<f64>,
}

/// A feed-forward network: ReLU hidden layers, linear output.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Layer>,
}

impl Mlp {
    /// Creates a network with the given layer sizes, e.g. `&[8, 32, 16, 6]`.
    ///
    /// # Panics
    /// Panics with fewer than two sizes or any zero size.
    pub fn new(sizes: &[usize], rng: &mut RngStream) -> Self {
        assert!(sizes.len() >= 2, "need input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        Mlp {
            layers: sizes
                .windows(2)
                .map(|w| Layer::new(w[0], w[1], rng))
                .collect(),
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.layers[0].inputs
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("non-empty").biases.len()
    }

    /// Forward pass; hidden layers ReLU, output linear.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let n = self.layers.len();
        let mut x = input.to_vec();
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(&x);
            if i + 1 < n {
                for v in &mut x {
                    *v = v.max(0.0);
                }
            }
        }
        x
    }

    /// The argmax of the forward pass — the policy's chosen action.
    pub fn act(&self, input: &[f64]) -> usize {
        let out = self.forward(input);
        out.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite outputs"))
            .map(|(i, _)| i)
            .expect("non-empty output")
    }

    /// One SGD step on a single `(input, target)` pair with squared loss;
    /// returns the loss before the update.
    pub fn train_step(&mut self, input: &[f64], target: &[f64], lr: f64) -> f64 {
        self.train_step_with(input, target, lr, &mut TrainScratch::default())
    }

    /// [`Mlp::train_step`] against caller-owned scratch buffers.
    fn train_step_with(
        &mut self,
        input: &[f64],
        target: &[f64],
        lr: f64,
        s: &mut TrainScratch,
    ) -> f64 {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        assert_eq!(target.len(), self.output_dim(), "target dimension mismatch");
        // Forward, keeping activations.
        let n = self.layers.len();
        s.activations.resize_with(n + 1, Vec::new);
        s.pre_acts.resize_with(n, Vec::new);
        s.activations[0].clear();
        s.activations[0].extend_from_slice(input);
        for i in 0..n {
            let (done, rest) = s.activations.split_at_mut(i + 1);
            self.layers[i].forward_into(&done[i], &mut s.pre_acts[i]);
            let a = &mut rest[0];
            a.clear();
            if i + 1 < n {
                a.extend(s.pre_acts[i].iter().map(|v| v.max(0.0)));
            } else {
                a.extend_from_slice(&s.pre_acts[i]);
            }
        }
        let output = &s.activations[n];
        let loss: f64 = output
            .iter()
            .zip(target)
            .map(|(o, t)| (o - t).powi(2))
            .sum::<f64>()
            / output.len() as f64;

        // Backward.
        s.delta.clear();
        s.delta.extend(
            output
                .iter()
                .zip(target)
                .map(|(o, t)| 2.0 * (o - t) / output.len() as f64),
        );
        for li in (0..n).rev() {
            // ReLU derivative for hidden layers (output layer is linear).
            if li + 1 < n {
                for (d, z) in s.delta.iter_mut().zip(&s.pre_acts[li]) {
                    if *z <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            let input_act = &s.activations[li];
            let layer = &mut self.layers[li];
            // One sweep per row: row `o` feeds the previous layer's error
            // before it is updated, and `prev_delta[i]` still accumulates
            // in `o` order, so every value matches a read-all-then-update
            // pair of sweeps bit for bit.
            s.prev_delta.clear();
            s.prev_delta.resize(input_act.len(), 0.0);
            for ((row, b), &d) in layer
                .weights
                .chunks_exact_mut(layer.inputs)
                .zip(&mut layer.biases)
                .zip(&s.delta)
            {
                for ((w, pd), &a) in row.iter_mut().zip(&mut s.prev_delta).zip(input_act) {
                    *pd += *w * d;
                    *w -= lr * d * a;
                }
                *b -= lr * d;
            }
            std::mem::swap(&mut s.delta, &mut s.prev_delta);
        }
        loss
    }

    /// Trains over the dataset for `epochs` passes (deterministic shuffling
    /// via `rng`); returns the final mean loss.
    pub fn train(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        epochs: usize,
        lr: f64,
        rng: &mut RngStream,
    ) -> f64 {
        assert_eq!(inputs.len(), targets.len(), "inputs vs targets mismatch");
        assert!(!inputs.is_empty(), "cannot train on an empty dataset");
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        let mut last_loss = f64::NAN;
        let mut scratch = TrainScratch::default();
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            let mut total = 0.0;
            for &i in &order {
                // One budget event per SGD step: training is the hot loop
                // of the Pensieve experiments, and charging here is what
                // makes them visible to the progress watchdog and
                // killable by deadlines/interrupts mid-epoch.
                fiveg_simcore::budget::charge(1);
                total += self.train_step_with(&inputs[i], &targets[i], lr, &mut scratch);
            }
            last_loss = total / inputs.len() as f64;
        }
        last_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_consistent() {
        let mut rng = RngStream::new(1, "mlp");
        let net = Mlp::new(&[4, 8, 3], &mut rng);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.forward(&[0.0; 4]).len(), 3);
    }

    #[test]
    fn learns_a_linear_map() {
        let mut rng = RngStream::new(2, "mlp");
        let mut net = Mlp::new(&[2, 16, 1], &mut rng);
        let inputs: Vec<Vec<f64>> = (0..200)
            .map(|_| vec![rng.uniform(), rng.uniform()])
            .collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![x[0] + 2.0 * x[1]]).collect();
        let loss = net.train(&inputs, &targets, 200, 0.01, &mut rng);
        assert!(loss < 1e-3, "final loss {loss}");
        let pred = net.forward(&[0.5, 0.25])[0];
        assert!((pred - 1.0).abs() < 0.1, "pred {pred}");
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        let mut rng = RngStream::new(3, "mlp");
        let mut net = Mlp::new(&[2, 16, 8, 2], &mut rng);
        let inputs: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let targets: Vec<Vec<f64>> = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
        ];
        net.train(&inputs, &targets, 3000, 0.05, &mut rng);
        assert_eq!(net.act(&[0.0, 0.0]), 0);
        assert_eq!(net.act(&[1.0, 0.0]), 1);
        assert_eq!(net.act(&[0.0, 1.0]), 1);
        assert_eq!(net.act(&[1.0, 1.0]), 0);
    }

    #[test]
    fn training_is_deterministic() {
        let build = || {
            let mut rng = RngStream::new(4, "mlp");
            let mut net = Mlp::new(&[2, 8, 1], &mut rng);
            let inputs = vec![vec![0.1, 0.9], vec![0.8, 0.2]];
            let targets = vec![vec![1.0], vec![0.0]];
            net.train(&inputs, &targets, 50, 0.05, &mut rng);
            net.forward(&[0.5, 0.5])[0]
        };
        assert_eq!(build().to_bits(), build().to_bits());
    }

    /// Outputs of the Pensieve-shaped `[6, 48, 24, 6]` net after a few
    /// seeded epochs, pinned as bits. The constants were recorded with
    /// nested per-row weight vectors and separate read and update sweeps,
    /// so they hold the flat, fused sweep to that arithmetic: updating a
    /// row before it feeds the previous layer's error moves them.
    #[test]
    fn pensieve_shaped_training_bits_are_pinned() {
        let mut rng = RngStream::new(13, "mlp/pin");
        let mut net = Mlp::new(&[6, 48, 24, 6], &mut rng);
        let inputs: Vec<Vec<f64>> = (0..64)
            .map(|_| (0..6).map(|_| rng.uniform()).collect())
            .collect();
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| {
                (0..6)
                    .map(|k| (x[k] * 3.0).sin() - x[(k + 1) % 6])
                    .collect()
            })
            .collect();
        net.train(&inputs, &targets, 5, 0.008, &mut rng);
        let got: Vec<Vec<u64>> = [
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.1, 0.9, 0.3, 0.7, 0.5, 0.2],
            [1.0, -0.5, 0.25, 2.0, -1.0, 0.75],
        ]
        .iter()
        .map(|x| net.forward(x).iter().map(|v| v.to_bits()).collect())
        .collect();
        let want: [[u64; 6]; 3] = [
            [
                0x3fb8070892aefa31,
                0x3fa59e4301201c42,
                0x3fb41ad5f5f3f262,
                0x3f827e104fc9e813,
                0x3fb1a853da53d780,
                0xbfac99be442989f6,
            ],
            [
                0xbfd1fadf3510f43e,
                0x3fd416909af1263f,
                0xbfb4d6374e78a15b,
                0xbfa91e460bc4e21c,
                0xbf88972e1aa3c318,
                0x3fc521003f90ae7c,
            ],
            [
                0x3ff9e1a94d463b27,
                0x3ff6f2b0c6c885c3,
                0xbfe7a22b4b233c2e,
                0xbfb8e2965826d62a,
                0xbfd1384f7943a0ec,
                0xbfe74a7ae1561442,
            ],
        ];
        assert_eq!(got, want.map(Vec::from).to_vec());
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn rejects_bad_input_shape() {
        let mut rng = RngStream::new(5, "mlp");
        let net = Mlp::new(&[3, 2], &mut rng);
        net.forward(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn train_step_rejects_bad_input_shape() {
        // Row-wise zips would otherwise drop the extra input silently.
        let mut rng = RngStream::new(5, "mlp");
        let mut net = Mlp::new(&[3, 2], &mut rng);
        net.train_step(&[1.0, 2.0, 3.0, 4.0], &[0.0, 0.0], 0.1);
    }
}
