"""Bad: reseeds the shared global RNG at import time."""
import random

random.seed(7)
