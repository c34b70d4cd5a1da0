"""Few-shot prompting: the paper's proposed cross-lingual mitigation.

Section V suggests that "few-shot learning could partially mitigate"
the non-English recall gap: showing the model labeled exemplar images
grounds the translated indicator terms in visual evidence.  This
module builds few-shot prompts — exemplar blocks (image + the correct
answer line) prepended to the paper's parallel prompt — and the
simulated models honor them: an exemplar block that demonstrates an
indicator's term reduces that term's language threshold shift (see
``repro.llm.models``).

This is an *extension experiment* beyond the paper's evaluation,
implementing its stated future work.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..gsv.dataset import LabeledImage
from ..llm.base import ChatMessage, ChatRequest, ImageAttachment
from ..llm.language import Language
from .indicators import Indicator
from .languages import PAPER_QUESTION_ORDER
from .parsing import presence_to_answer_text
from .prompts import build_parallel_prompt

#: Marker that opens an exemplar block; the simulated models detect it.
EXAMPLE_MARKERS: dict[Language, str] = {
    Language.ENGLISH: "Example:",
    Language.SPANISH: "Ejemplo:",
    Language.CHINESE: "示例：",
    Language.BENGALI: "উদাহরণ:",
}


def build_few_shot_messages(
    exemplars: Sequence[LabeledImage],
    language: Language = Language.ENGLISH,
    indicators: tuple[Indicator, ...] = PAPER_QUESTION_ORDER,
) -> tuple[ChatMessage, ...]:
    """Exemplar messages: each shows an image and its correct answers."""
    if not exemplars:
        raise ValueError("few-shot prompting needs at least one exemplar")
    marker = EXAMPLE_MARKERS[language]
    messages = []
    for exemplar in exemplars:
        answers = presence_to_answer_text(
            exemplar.presence, indicators, language
        )
        messages.append(
            ChatMessage(
                role="user",
                text=f"{marker} {answers}",
                images=(ImageAttachment(scene=exemplar.scene),),
            )
        )
    return tuple(messages)


def build_few_shot_request(
    model: str,
    image: LabeledImage,
    exemplars: Sequence[LabeledImage],
    language: Language = Language.ENGLISH,
    indicators: tuple[Indicator, ...] = PAPER_QUESTION_ORDER,
    temperature: float = 1.0,
    top_p: float = 0.95,
) -> ChatRequest:
    """A complete few-shot classification request."""
    prompt = build_parallel_prompt(language, indicators)
    messages = build_few_shot_messages(exemplars, language, indicators) + (
        ChatMessage(
            role="user",
            text=prompt,
            images=(ImageAttachment(scene=image.scene),),
        ),
    )
    return ChatRequest(
        model=model,
        messages=messages,
        temperature=temperature,
        top_p=top_p,
    )
