"""Street-view service substrate: simulated GSV API, LabelMe I/O, datasets."""

from .api import (
    FEE_PER_IMAGE_USD,
    AuthenticationError,
    NoImageryError,
    QuotaExceededError,
    StreetViewClient,
    StreetViewError,
    StreetViewImage,
    TransientNetworkError,
    UsageMeter,
)
from .dataset import (
    DatasetSplits,
    LabeledImage,
    SurveyDataset,
    augment_training_set,
    build_survey_dataset,
    cropped_image,
    rotated_image,
)
from .labelme import (
    LABELME_VERSION,
    LabelMeShape,
    labelme_to_annotations,
    load_labelme,
    perturb_annotations,
    save_labelme,
    scene_to_labelme,
)

__all__ = [
    "FEE_PER_IMAGE_USD",
    "AuthenticationError",
    "NoImageryError",
    "QuotaExceededError",
    "StreetViewClient",
    "StreetViewError",
    "StreetViewImage",
    "TransientNetworkError",
    "UsageMeter",
    "DatasetSplits",
    "LabeledImage",
    "SurveyDataset",
    "augment_training_set",
    "build_survey_dataset",
    "cropped_image",
    "rotated_image",
    "LABELME_VERSION",
    "LabelMeShape",
    "labelme_to_annotations",
    "load_labelme",
    "perturb_annotations",
    "save_labelme",
    "scene_to_labelme",
]
