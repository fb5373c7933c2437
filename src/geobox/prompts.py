"""Prompt templates for the five LLM roles.

The template strings are frozen protocol artifacts: fine-tuned reasoner
checkpoints and the cache layer both depend on stable bytes, so nothing
here should be "cleaned up". That includes quirks that look like bugs —
the exemplar mention sentences carry longitude/latitude values in
swapped order, one recaller exemplar answers with an impossible latitude
of 109.712 (its geo-augmented twin says -109.712), and the
direct/recaller exemplar inputs end with a separator space left behind
where the other templates carry mention sentences. Downstream code
treats exemplar content as opaque text, never as ground truth.

System text = instruction block, plus the exemplar block when few-shot
is enabled. User text is assembled in the reasoner module.
"""

from __future__ import annotations

import enum


class PromptKind(enum.Enum):
    """Which of the five chat roles a request plays."""

    KNOWLEDGE_POINT = "knowledge_point"      # location name -> center coordinates
    KNOWLEDGE_BOX = "knowledge_box"          # location name -> bounding box
    GEO_AUGMENTED_BOX = "geo_augmented_box"  # description + mention coords -> box
    DIRECT_BOX = "direct_box"                # description alone -> box
    MENTION_RECALLER = "mention_recaller"    # description -> mention coords text


_INSTRUCTIONS: dict[PromptKind, str] = {
    PromptKind.KNOWLEDGE_POINT: (
        "You are a system that returns the *center coordinates* of a given location "
        "or landmark. The coordinates are a pair of numbers defining the location's "
        "latitude and longitude, where latitude is a decimal number between -90.0 and "
        "90.0 and longitude is a decimal number between -180.0 and 180.0. Follow the "
        "standard format of (latitude, longitude)."
    ),
    PromptKind.KNOWLEDGE_BOX: (
        "You are a system that returns the *bounding box* of a given location or "
        "landmark. A bounding box is an area defined by two longitudes and two "
        "latitudes, where latitude is a decimal number between -90.0 and 90.0 and "
        "longitude is a decimal number between -180.0 and 180.0. Follow the standard "
        "format of (min longitude, min latitude, max longitude, max latitude)."
    ),
    PromptKind.GEO_AUGMENTED_BOX: (
        "You are a system that returns the *bounding box* of a described location or "
        "landmark, by using a description and the center longitude and latitude of "
        "related locations. A bounding box is an area defined by two longitudes and "
        "two latitudes, where latitude is a decimal number between -90.0 and 90.0 and "
        "longitude is a decimal number between -180.0 and 180.0. Follow the standard "
        "format of (min longitude, min latitude, max longitude, max latitude)."
    ),
    PromptKind.DIRECT_BOX: (
        "You are a system that returns the *bounding box* of a described location or "
        "landmark. A bounding box is an area defined by two longitudes and two "
        "latitudes, where latitude is a decimal number between -90.0 and 90.0 and "
        "longitude is a decimal number between -180.0 and 180.0. Follow the standard "
        "format of (min longitude, min latitude, max longitude, max latitude)."
    ),
    PromptKind.MENTION_RECALLER: (
        "You are a system that returns the *center coordinates* for each location "
        "mentioned in a given paragraph. The coordinates are a pair of numbers "
        "defining each location's latitude and longitude, where latitude is a decimal "
        "number between -90.0 and 90.0 and longitude is a decimal number between "
        "-180.0 and 180.0."
    ),
}

_EXAMPLE_HEADER = "Here are some examples with the expected output format:"

# Trailing spaces below are intentional and load-bearing (see module
# docstring); editors configured to strip them will corrupt the protocol.
_EXAMPLES: dict[PromptKind, str] = {
    PromptKind.KNOWLEDGE_POINT: (
        f"{_EXAMPLE_HEADER}\n"
        "Input: The Eiffel Tower, in France.\n"
        "Output: (48.858, 2.2959)\n"
        "Input: Brazil, in South America.\n"
        "Output: (-14.243, -53.189)"
    ),
    PromptKind.KNOWLEDGE_BOX: (
        f"{_EXAMPLE_HEADER}\n"
        "Input: The Eiffel Tower, in France.\n"
        "Output: (2.293, 48.857, 2.297, 48.859)\n"
        "Input: Brazil, in South America.\n"
        "Output: (-73.983, -33.750, -34.793, 5.270)"
    ),
    PromptKind.GEO_AUGMENTED_BOX: (
        f"{_EXAMPLE_HEADER}\n"
        "Input: The location is a wrought-iron lattice tower on the Champ de Mars in "
        "Paris, France. It is named after the engineer Gustave Eiffel, whose company "
        "designed and built the tower from 1887 to 1889. Champ de Mars has a "
        "longitude of 48.855 and latitude of 2.296. Paris has a longitude of 48.859 "
        "and latitude of 2.264.\n"
        "Output: (2.293, 48.857, 2.297, 48.859)\n"
        "Input: The location is the largest and easternmost country in South America. "
        "South America has a longitude of -13.591 and latitude of -109.712.\n"
        "Output: (-73.983, -33.750, -34.793, 5.270)"
    ),
    PromptKind.DIRECT_BOX: (
        f"{_EXAMPLE_HEADER}\n"
        "Input: The location is a wrought-iron lattice tower on the Champ de Mars in "
        "Paris, France. It is named after the engineer Gustave Eiffel, whose company "
        "designed and built the tower from 1887 to 1889. \n"
        "Output: (2.293, 48.857, 2.297, 48.859)\n"
        "Input: The location is the largest and easternmost country in South America. \n"
        "Output: (-73.983, -33.750, -34.793, 5.270)"
    ),
    PromptKind.MENTION_RECALLER: (
        f"{_EXAMPLE_HEADER}\n"
        "Input: The location is a wrought-iron lattice tower on the Champ de Mars in "
        "Paris, France. It is named after the engineer Gustave Eiffel, whose company "
        "designed and built the tower from 1887 to 1889. \n"
        "Output: Champ de Mars has a longitude of 48.855 and latitude of 2.296. Paris "
        "has a longitude of 48.859 and latitude of 2.264. \n"
        "Input: The location is the largest and easternmost country in South America.\n"
        "Output: South America has a longitude of -13.591 and latitude of 109.712."
    ),
}

# Which template family each kind belongs to. Knowledge kinds take a bare
# location payload; the rest take a description (plus, for the
# geo-augmented kind, recalled mention sentences).
NAME_INPUT_KINDS = frozenset({PromptKind.KNOWLEDGE_POINT, PromptKind.KNOWLEDGE_BOX})


def system_text(kind: PromptKind, few_shot: bool = True) -> str:
    """The system message for a prompt kind.

    With ``few_shot=False`` (fine-tuned checkpoints) the exemplar block
    is dropped entirely, including its introduction sentence.
    """
    if few_shot:
        return f"{_INSTRUCTIONS[kind]} {_EXAMPLES[kind]}"
    return _INSTRUCTIONS[kind]
