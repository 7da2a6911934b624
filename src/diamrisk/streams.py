"""Tags of every random stream of the label-noise experiment.

Each stream is np.random.default_rng([seed, tag]) (the batch order adds the
epoch: [seed, BATCH, epoch]). The training side draws from drm.seed, the
data from dataset.seed. SeedSequence pads its entropy with zeros, so keys
that differ only by trailing zeros ([s, 1] and [s, 1, 0]) name one stream;
the drm-side keys differ after that padding.

The two sides share tags 0-2, so when drm.seed equals dataset.seed (the
default, and always after `run --seed`) TRAIN and INIT, FLIP and PERTURB,
and TEST and the epoch-0 BATCH key each name one stream.
"""

# drm.seed
INIT = 0  # the initial weights w0
BATCH = 1  # each epoch's batch order
PERTURB = 2  # the DRM perturbation directions
COIN = 3  # the probabilistic sampling coin
EVAL = 4  # the epoch-end evaluation directions, redrawn from one key at each scored epoch
HIST = 5  # the landscape histogram directions around both final solutions

# dataset.seed
TRAIN = 0  # the train blobs
TEST = 1  # the test blobs
FLIP = 2  # the label flips of the train set
