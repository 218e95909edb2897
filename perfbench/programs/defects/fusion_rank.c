/* Known defect (fusion probe): a 1-D pointer-element write followed by a
   2-D read through it. The accesses to B have different ranks, and the
   two loops are fused although row i reads rows B[j] written by other
   iterations.
   usage: fusion_rank SEED N */
#include <stdio.h>
#include <stdlib.h>

float **B, **C;

int main(int argc, char** argv) {
  if (argc < 3) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  B = (float**)malloc(n * sizeof(float*));
  C = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++)
    C[i] = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n; i++)
    B[i] = (float*)calloc(n, sizeof(float));
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      C[i][j] = B[j][0] + (float)((i + j + seed) % 7);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)C[i][j] * ((i + 2 * j) % 5);
  printf("checksum %.6f\n", checksum);
  return 0;
}
