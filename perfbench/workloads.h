// The three workloads; each runs in its own process, start to end.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

Outcome RunBasketStaticRead(const Args& args);
Outcome RunCensusDurableRw(const Args& args);
Outcome RunBasketServeZipf(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
