"""Signal-design toolkit for simultaneous wireless information and power
transfer: harvester modeling, constellation/codebook design, end-to-end
learned modulation, and Monte Carlo link evaluation.
"""

from .autoencoder import (
    AeSystem,
    Topology,
    TrainConfig,
    TrainDivergedError,
    build_system,
    composite_loss,
    encode_all,
    evaluate_ser,
    extract_design,
    gradient_check,
    load_system,
    make_decoder,
    received_codebooks,
    train,
)
from .channel import (
    ChannelSpec,
    SerResult,
    TradeoffPoint,
    awgn,
    delivered_power,
    delivered_power_mc,
    delivered_power_noiseless,
    qam_reference,
    qfunc,
    rp_sweep,
    ser_mc,
    write_sweep_csv,
)
from .codebook import (
    GreedyConfig,
    build_info_codebook,
    decode_onoff_block_many,
    onoff_block_code,
    swipt_codebook,
)
from .constellation import (
    Codebook,
    circle_capacity,
    codebook_min_dist,
    layout_info,
    m_on_count,
    swipt_transform,
)
from .harvester import (
    EhModel,
    FitDivergedError,
    FitHyper,
    ModelC,
    PowerDataset,
    canonical_model,
    fit_eh,
    onoff_delivered,
    optimal_pon,
    pon_approx,
    synth_dataset,
)
from .nn import MlpParams

__version__ = "0.1.0"
