package nn

import (
	"fmt"
	"slices"

	"disttrain/internal/rng"
)

// NewMLP builds a multi-layer perceptron with ReLU activations between the
// given layer widths, e.g. NewMLP(r, 2, 32, 32, 3) for a 2-feature,
// 3-class classifier. Used by fast tests and the Gaussian-cluster tasks.
func NewMLP(r *rng.RNG, dims ...int) *Model {
	return NewModel("mlp", mlpLayers(r, dims...)...)
}

func mlpLayers(r *rng.RNG, dims ...int) []Layer {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dims")
	}
	var layers []Layer
	for i := 0; i < len(dims)-1; i++ {
		if i < len(dims)-2 {
			layers = append(layers, NewDenseReLU(fmt.Sprintf("fc%d", i), dims[i], dims[i+1], r))
		} else {
			layers = append(layers, NewDense(fmt.Sprintf("fc%d", i), dims[i], dims[i+1], r))
		}
	}
	return layers
}

// NewMiniCNN builds a small convolutional classifier for 1×16×16 inputs —
// the scaled-down stand-in for ResNet-50 in the accuracy experiments:
// conv(8)-relu-pool-conv(16)-relu-pool-fc(classes).
func NewMiniCNN(r *rng.RNG, classes int) *Model {
	return NewModel("minicnn",
		NewConv2DReLU("conv1", 1, 8, 3, 1, 1, r),
		NewMaxPool("pool1"),
		NewConv2DReLU("conv2", 8, 16, 3, 1, 1, r),
		NewMaxPool("pool2"),
		NewFlatten("flat"),
		NewDense("fc", 16*4*4, classes, r),
	)
}

// NewMiniResNet builds a residual CNN for 1×16×16 inputs: a conv stem plus
// two residual blocks, mirroring ResNet's skip-connection structure at toy
// scale. Parameter mass is spread across many similarly sized conv layers,
// making it "computation-intensive" in the paper's taxonomy.
func NewMiniResNet(r *rng.RNG, classes int) *Model {
	// c1+r1 fuse into one layer; c2 cannot (its ReLU sits after the skip
	// add), so the post-skip ReLU fuses into the skip add instead.
	block := func(name string, ch int) Layer {
		return NewResidualReLU(name,
			NewConv2DReLU(name+".c1", ch, ch, 3, 1, 1, r),
			NewConv2D(name+".c2", ch, ch, 3, 1, 1, r),
		)
	}
	return NewModel("miniresnet",
		NewConv2DReLU("stem", 1, 8, 3, 1, 1, r),
		block("res1", 8),
		NewMaxPool("pool1"),
		block("res2", 8),
		NewMaxPool("pool2"),
		NewFlatten("flat"),
		NewDense("fc", 8*4*4, classes, r),
	)
}

// NewMiniResNetBN builds a batch-normalized residual CNN for 1×16×16
// inputs with a global-average-pooled head — the closest structural
// miniature of real ResNet-50 in this repo (conv-BN-ReLU blocks, identity
// skips, GAP classifier). BN uses per-replica batch statistics, as the
// paper's data-parallel TensorFlow models do.
func NewMiniResNetBN(r *rng.RNG, classes int) *Model {
	// The ReLUs behind a BatchNorm stay standalone; the post-skip ones fuse
	// into the skip add.
	block := func(name string, ch int) Layer {
		return NewResidualReLU(name,
			NewConv2D(name+".c1", ch, ch, 3, 1, 1, r),
			NewBatchNorm(name+".bn1", ch),
			NewReLU(name+".r1"),
			NewConv2D(name+".c2", ch, ch, 3, 1, 1, r),
			NewBatchNorm(name+".bn2", ch),
		)
	}
	return NewModel("miniresnetbn",
		NewConv2D("stem", 1, 8, 3, 1, 1, r),
		NewBatchNorm("stem.bn", 8),
		NewReLU("stem.relu"),
		block("res1", 8),
		NewMaxPool("pool1"),
		block("res2", 8),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 8, classes, r),
	)
}

// NewMiniVGG builds a VGG-style CNN for 1×16×16 inputs whose first fully
// connected layer deliberately holds the large majority of the parameters,
// reproducing VGG-16's skewed per-layer size distribution (~75 % of its
// 138 M parameters sit in fc1) that drives the paper's sharding results.
func NewMiniVGG(r *rng.RNG, classes int) *Model {
	return NewModel("minivgg",
		NewConv2DReLU("conv1", 1, 8, 3, 1, 1, r),
		NewMaxPool("pool1"),
		NewConv2DReLU("conv2", 8, 16, 3, 1, 1, r),
		NewMaxPool("pool2"),
		NewFlatten("flat"),
		NewDenseReLU("fc1", 16*4*4, 256, r), // dominant layer, ~80% of params
		NewDense("fc2", 256, classes, r),
	)
}

// ModelFactory constructs a fresh model with weights drawn from r. Every
// worker and every PS replica in an experiment builds its model through the
// same factory with the same RNG stream so all replicas start identical.
type ModelFactory func(r *rng.RNG) *Model

// imageSample is the per-sample shape every conv net here is built for.
var imageSample = []int{1, 16, 16}

// FactoryByName returns the ModelFactory registered for name ("mlp",
// "minicnn", "miniresnet", "miniresnetbn", "minivgg") on samples of the
// given shape, for CLI use — or an error when the net cannot take them, so
// a mismatch is reported where the experiment is described and not as a
// shape panic inside its first forward pass. The conv nets take 1×16×16
// images only; the MLP sizes its first layer to the sample and flattens
// anything that is not already a feature vector.
func FactoryByName(name string, classes int, sample []int) (ModelFactory, error) {
	var build func(r *rng.RNG) *Model
	switch name {
	case "mlp":
		in := 1
		for _, d := range sample {
			in *= d
		}
		flat := len(sample) == 1
		return func(r *rng.RNG) *Model {
			layers := mlpLayers(r, in, 32, 32, classes)
			if !flat {
				layers = append([]Layer{NewFlatten("flat")}, layers...)
			}
			return NewModel("mlp", layers...)
		}, nil
	case "minicnn":
		build = func(r *rng.RNG) *Model { return NewMiniCNN(r, classes) }
	case "miniresnet":
		build = func(r *rng.RNG) *Model { return NewMiniResNet(r, classes) }
	case "miniresnetbn":
		build = func(r *rng.RNG) *Model { return NewMiniResNetBN(r, classes) }
	case "minivgg":
		build = func(r *rng.RNG) *Model { return NewMiniVGG(r, classes) }
	default:
		return nil, fmt.Errorf("nn: unknown model %q", name)
	}
	if !slices.Equal(sample, imageSample) {
		return nil, fmt.Errorf("nn: %s takes %v samples, not %v", name, imageSample, sample)
	}
	return build, nil
}
