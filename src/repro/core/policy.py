"""The update-policy abstraction (paper §3.1).

A *position-update policy* is a quintuple (deviation cost function,
update cost, estimator function, fitting method, predicted speed).  At
every point in time the moving object's onboard computer evaluates the
policy against its current :class:`OnboardState` and gets back an
:class:`UpdateDecision` saying whether to send a position update and,
if so, which speed to declare.

The onboard state is everything the paper says the object knows: its
exact current position (hence the current deviation), the parameters of
the last update, and its own speed history.  The DBMS never sees this
state — it only sees update messages — which is why the bounds of
§3.3 (:mod:`repro.core.bounds`) are computed from update-visible
quantities only.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.cost import DeviationCostFunction, UniformDeviationCost
from repro.errors import PolicyError

#: Relative slack applied when comparing the deviation to a threshold,
#: so that discrete-time simulations fire on the tick where the
#: deviation first reaches the threshold despite float rounding.
THRESHOLD_TOLERANCE = 1e-12


@dataclass(frozen=True, slots=True)
class OnboardState:
    """Everything the onboard computer knows when evaluating a policy.

    All times are in minutes since the last position update, except
    ``trip_elapsed`` (minutes since trip start).  Distances are miles,
    speeds miles/minute.
    """

    #: Time since the last position update (the paper's ``t``).
    elapsed: float
    #: Current deviation: route-distance between the actual position and
    #: the database position (the paper's ``k``); always >= 0.
    deviation: float
    #: Route-distance actually travelled since the last update.  Used by
    #: the traditional (non-temporal) baseline, whose stored position is
    #: a static point.
    distance_since_update: float
    #: ``elapsed`` at the most recent instant the deviation was zero.
    #: This is the simple fitting method's delay ``b``.
    elapsed_at_last_zero_deviation: float
    #: The object's current (instantaneous) speed.
    current_speed: float
    #: Average speed since the last update.
    average_speed_since_update: float
    #: Average speed since the start of the trip.
    trip_average_speed: float
    #: The speed currently declared in the database (``P.speed``).
    declared_speed: float
    #: Time since the start of the trip.
    trip_elapsed: float

    def __post_init__(self) -> None:
        if self.elapsed < 0:
            raise PolicyError(f"elapsed must be nonnegative, got {self.elapsed}")
        if self.deviation < 0:
            raise PolicyError(f"deviation must be nonnegative, got {self.deviation}")
        if not 0 <= self.elapsed_at_last_zero_deviation <= self.elapsed + 1e-9:
            raise PolicyError(
                "elapsed_at_last_zero_deviation must lie in [0, elapsed]; got "
                f"{self.elapsed_at_last_zero_deviation} with elapsed {self.elapsed}"
            )


@dataclass(frozen=True, slots=True)
class UpdateDecision:
    """The outcome of evaluating a policy at one instant.

    ``send`` says whether to transmit a position update now.  When an
    update is sent, ``speed_to_declare`` is the value for ``P.speed``.
    The fitted estimator parameters and the threshold are carried along
    for instrumentation (the experiment harness records them).
    """

    send: bool
    speed_to_declare: float
    threshold: float
    fitted_slope: float
    fitted_delay: float


class UpdatePolicy(ABC):
    """Base class for position-update policies.

    Concrete policies supply the estimator + fitting combination via
    :meth:`decide` and the predicted speed via their speed predictor.
    The deviation cost function and the update cost ``C`` are common to
    the quintuple and held here.
    """

    #: Policy identifier stored in the ``P.policy`` sub-attribute.
    name: str = "abstract"

    def __init__(self, update_cost: float,
                 cost_function: DeviationCostFunction | None = None) -> None:
        if not update_cost >= 0:
            raise PolicyError(f"update cost must be nonnegative, got {update_cost}")
        self.update_cost = update_cost
        self.cost_function = cost_function or UniformDeviationCost()

    @abstractmethod
    def decide(self, state: OnboardState) -> UpdateDecision:
        """Evaluate the policy at one instant of onboard state."""

    def describe(self) -> dict[str, object]:
        """The policy quintuple as a plain dict (for reports and logs)."""
        return {
            "name": self.name,
            "deviation_cost_function": self.cost_function.name,
            "update_cost": self.update_cost,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(update_cost={self.update_cost})"

    @staticmethod
    def _no_update(state: OnboardState, threshold: float = float("inf"),
                   slope: float = 0.0, delay: float = 0.0) -> UpdateDecision:
        """A convenience "do nothing" decision."""
        return UpdateDecision(
            send=False,
            speed_to_declare=state.declared_speed,
            threshold=threshold,
            fitted_slope=slope,
            fitted_delay=delay,
        )


__all__ = [
    "OnboardState",
    "THRESHOLD_TOLERANCE",
    "UpdateDecision",
    "UpdatePolicy",
]
