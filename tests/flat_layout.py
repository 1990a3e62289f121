"""Reading a vector laid out like `NeuralNet.flat` one layer at a time."""


def unflatten(net, vec):
    """Per-layer (weight, bias) views into `vec`, a vector laid out like
    `net.flat`: each layer's weight in C order, then its bias, at the offsets
    of the layer's entry in `net.plan`."""
    return [(vec[s:m].reshape(w.shape), vec[m:e]) for w, _, _, _, _, s, m, e in net.plan]
